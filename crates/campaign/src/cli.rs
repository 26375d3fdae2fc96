//! Typed command-line flag parsing for the `pcmac-campaign` binary.
//!
//! These helpers parse the target type directly (no detour through
//! `f64`, which truncates fractional input and any seed above 2⁵³) and
//! treat a present-but-malformed value, an unparseable list element or a
//! flag the subcommand does not take as an error naming the flag;
//! nothing here exits the process.

use std::fmt::Display;
use std::str::FromStr;

/// Refuse any `--…` argument that is not one of `known`, the flags a
/// subcommand takes: a misspelt or retired flag would otherwise run
/// something other than what was asked for.
pub fn check_flags(args: &[String], known: &[&str]) -> Result<(), String> {
    let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    else {
        return Ok(());
    };
    Err(if known.is_empty() {
        format!("unknown flag {flag}: this command takes no flags")
    } else {
        format!(
            "unknown flag {flag}: this command takes {}",
            known.join(", ")
        )
    })
}

/// The raw value following `--flag`, if the flag is present.
pub fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Typed parse of `--flag value`. `Ok(None)` when the flag is absent;
/// `Err` naming the flag when its value is missing or malformed.
pub fn try_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String>
where
    T::Err: Display,
{
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(v) = args.get(i + 1) else {
        return Err(format!("{flag} expects a value"));
    };
    v.parse().map(Some).map_err(|e| format!("{flag} {v}: {e}"))
}

/// Typed parse of a comma-separated `--flag a,b,c` list. Rejects empty
/// lists and unparseable elements instead of silently dropping them.
pub fn try_flag_list<T: FromStr>(args: &[String], flag: &str) -> Result<Option<Vec<T>>, String>
where
    T::Err: Display,
{
    let Some(raw) = flag_value(args, flag) else {
        if args.iter().any(|a| a == flag) {
            return Err(format!("{flag} expects a comma-separated list"));
        }
        return Ok(None);
    };
    let items: Vec<T> = raw
        .split(',')
        .map(|s| s.trim().parse().map_err(|e| format!("{flag} `{s}`: {e}")))
        .collect::<Result<_, _>>()?;
    if items.is_empty() {
        return Err(format!("{flag} list is empty"));
    }
    Ok(Some(items))
}

/// Simulated seconds per run for `figures`: `--secs N` when given
/// (wherever it stands relative to `--full`), else the paper's 400 s
/// under `--full`, else a faster 60 s that already shows the same curve
/// shapes.
pub fn figure_secs(args: &[String]) -> Result<u64, String> {
    Ok(match try_flag(args, "--secs")? {
        Some(secs) => secs,
        None if args.iter().any(|a| a == "--full") => 400,
        None => 60,
    })
}

/// Campaign names as artifact-file stems: every character outside
/// ASCII alphanumerics becomes `_`, so `CAMPAIGN_<sanitize(name)>.json`
/// is always a safe path component.
pub fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_named_with_the_accepted_ones() {
        let known = ["--seed", "--interval"];
        assert_eq!(check_flags(&args("a.json --seed 7"), &known), Ok(()));
        assert_eq!(
            check_flags(&args("a.json --sed 7"), &known),
            Err("unknown flag --sed: this command takes --seed, --interval".into())
        );
        assert_eq!(
            check_flags(&args("a.json --fresh"), &[]),
            Err("unknown flag --fresh: this command takes no flags".into())
        );
        // Values and positional arguments are not flags.
        assert_eq!(check_flags(&args("a.json -5 -"), &[]), Ok(()));
    }

    #[test]
    fn absent_flag_is_none_not_error() {
        assert_eq!(try_flag::<u64>(&args("--other 3"), "--seed").unwrap(), None);
        assert_eq!(try_flag_list::<f64>(&args(""), "--loads").unwrap(), None);
    }

    #[test]
    fn values_parse_as_their_own_type() {
        // Through `f64` this seed would lose its low bits.
        let big = u64::MAX - 1;
        let a = args(&format!("--seed {big} --loads 300,500"));
        assert_eq!(try_flag::<u64>(&a, "--seed").unwrap(), Some(big));
        assert_eq!(
            try_flag_list::<f64>(&a, "--loads").unwrap(),
            Some(vec![300.0, 500.0])
        );
    }

    #[test]
    fn malformed_values_error() {
        assert!(try_flag::<u64>(&args("--seed 1.5"), "--seed").is_err());
        assert!(try_flag::<u64>(&args("--seed abc"), "--seed").is_err());
        assert!(try_flag::<u64>(&args("--seed"), "--seed").is_err());
        assert!(try_flag_list::<f64>(&args("--loads 300,x,500"), "--loads").is_err());
        assert!(try_flag_list::<f64>(&args("--loads"), "--loads").is_err());
    }

    #[test]
    fn explicit_secs_wins_over_full_in_either_order() {
        assert_eq!(figure_secs(&args("--full --secs 30")), Ok(30));
        assert_eq!(figure_secs(&args("--secs 30 --full")), Ok(30));
        assert_eq!(figure_secs(&args("--full")), Ok(400));
        assert_eq!(figure_secs(&args("--json out.jsonl")), Ok(60));
        assert!(figure_secs(&args("--full --secs 1.5")).is_err());
    }

    #[test]
    fn sanitize_keeps_alphanumerics_only() {
        assert_eq!(sanitize("ablation-safety/факт"), "ablation_safety_____");
        assert_eq!(sanitize("fig8"), "fig8");
    }
}
