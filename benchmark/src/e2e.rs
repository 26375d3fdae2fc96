//! The untraced pass: repetitions of a workload's operation list, split
//! into set-up and `run()`, with every operation's report checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use pcmac::{RunReport, ScenarioConfig, Simulator};

use crate::metrics::Values;
use crate::stats;
use crate::trace::Trace;
use crate::workloads::{self, Workload};

/// Set-up is sampled at least this often per run, and then for up to
/// `SETUP_EXTRA_S` more (small workloads set up in well under a
/// millisecond, so their median needs many samples to hold still).
const SETUP_MIN_SAMPLES: usize = 5;
const SETUP_MAX_SAMPLES: usize = 400;
const SETUP_EXTRA_S: f64 = 0.5;

/// Why a finished run's report counts as a failed operation, if it does.
pub fn report_defect(r: &RunReport) -> Option<&'static str> {
    if r.delivered_packets == 0 && r.offered_load_kbps > 0.0 {
        return Some("delivered zero packets under non-zero offered load");
    }
    if r.metrics.as_ref().is_some_and(|m| !m.drops.conserved()) {
        return Some("drop taxonomy is not conserved");
    }
    None
}

/// Counts operations and failures. An operation is one simulation run;
/// it fails if it panics, returns a defective report, or disagrees on
/// the report digest with an earlier run of the same operation.
#[derive(Default)]
pub struct Judge {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    /// First digest seen per operation index.
    digests: Vec<Option<u64>>,
}

impl Judge {
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.reasons.push(reason);
    }

    /// Account for operation `op`. `same_model` says the run used the
    /// workload's own scenario (possibly under another execution
    /// strategy), so its digest must agree with every other such run.
    pub fn operation(
        &mut self,
        op: usize,
        result: std::thread::Result<RunReport>,
        same_model: bool,
    ) -> Option<RunReport> {
        self.attempted += 1;
        let report = match result {
            Ok(r) => r,
            Err(_) => {
                self.fail(format!("operation {op} panicked"));
                return None;
            }
        };
        if let Some(defect) = report_defect(&report) {
            self.fail(format!("operation {op} {defect}"));
        } else if same_model {
            self.agree(op, stats::digest(&report));
        }
        Some(report)
    }

    fn agree(&mut self, op: usize, digest: u64) {
        if self.digests.len() <= op {
            self.digests.resize(op + 1, None);
        }
        match self.digests[op] {
            None => self.digests[op] = Some(digest),
            Some(first) if first != digest => self.fail(format!(
                "operation {op} digest {digest:016x} disagrees with {first:016x}"
            )),
            Some(_) => {}
        }
    }

    /// One digest over every operation of the workload, once each has
    /// produced a clean report.
    pub fn workload_digest(&self) -> Option<u64> {
        let all: Option<Vec<u64>> = self.digests.iter().copied().collect();
        all.filter(|d| !d.is_empty()).map(|d| stats::combine(&d))
    }
}

/// Totals of one repetition of a workload's operation list.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub events: u64,
    pub nodes: usize,
    /// Reports of the operations that did not panic.
    pub reports: Vec<RunReport>,
}

/// One measuring session: a workload at a seed, with the spans recorded
/// and the operations judged so far.
pub struct Session {
    pub workload: &'static Workload,
    pub seed: u64,
    pub trace: Trace,
    pub judge: Judge,
}

impl Session {
    pub fn new(workload: &'static Workload, seed: u64) -> Self {
        Session {
            workload,
            seed,
            trace: Trace::new(),
            judge: Judge::default(),
        }
    }

    /// The workload's scenarios, outside any span.
    pub fn scenarios(&self) -> Vec<ScenarioConfig> {
        self.workload.generate(self.seed, &mut Trace::new())
    }

    /// Generate and build every scenario of the workload (the set-up
    /// phase); `prepare` may adjust each scenario before it is built.
    /// Returns the simulators, the seconds it took and the nodes built.
    pub fn set_up(
        &mut self,
        prepare: &dyn Fn(ScenarioConfig) -> ScenarioConfig,
    ) -> (Vec<Simulator>, f64, usize) {
        let start = Instant::now();
        let mut nodes = 0;
        let (w, seed) = (self.workload, self.seed);
        let sims = self.trace.span("setup", |t| {
            let cfgs = t.span("generate", |t| w.generate(seed, t));
            cfgs.into_iter()
                .map(|cfg| {
                    nodes += workloads::node_count(&cfg);
                    t.span("build", |_| Simulator::new(prepare(cfg)))
                })
                .collect()
        });
        (sims, start.elapsed().as_secs_f64(), nodes)
    }

    /// One repetition inside a span named `pass`: set up, then drive
    /// each simulator with `drive` (plain `run()`, or an instrumented
    /// variant), timing only the drive. `same_model` is handed to
    /// [`Judge::operation`].
    pub fn rep(
        &mut self,
        pass: &'static str,
        same_model: bool,
        prepare: &dyn Fn(ScenarioConfig) -> ScenarioConfig,
        drive: &mut dyn FnMut(Simulator) -> RunReport,
    ) -> Rep {
        let open = self.trace.enter(pass);
        let (sims, setup_s, nodes) = self.set_up(prepare);
        let mut rep = Rep {
            setup_s,
            run_s: 0.0,
            events: 0,
            nodes,
            reports: Vec::new(),
        };
        for (op, sim) in sims.into_iter().enumerate() {
            let start = Instant::now();
            let result = self
                .trace
                .span("run", |_| catch_unwind(AssertUnwindSafe(|| drive(sim))));
            let run_s = start.elapsed().as_secs_f64();
            if let Some(report) = self.judge.operation(op, result, same_model) {
                rep.run_s += run_s;
                rep.events += report.events;
                rep.reports.push(report);
            }
        }
        self.trace.leave(open);
        rep
    }
}

pub fn unchanged(cfg: ScenarioConfig) -> ScenarioConfig {
    cfg
}

/// Peak resident set of this process so far, in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// The end-to-end metrics of one run: repeat the workload for `seconds`
/// and report medians over the repetitions.
pub fn measure(session: &mut Session, seconds: f64) -> Values {
    let mut setup_s = Vec::new();
    let mut ns_per_event = Vec::new();
    let start = Instant::now();
    while ns_per_event.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let r = session.rep("rep", true, &unchanged, &mut Simulator::run);
        setup_s.push(r.setup_s);
        if r.events == 0 {
            break; // every operation panicked; the judge has the count
        }
        ns_per_event.push(r.run_s * 1e9 / r.events as f64);
    }
    let extra = Instant::now();
    while setup_s.len() < SETUP_MIN_SAMPLES
        || (setup_s.len() < SETUP_MAX_SAMPLES && extra.elapsed().as_secs_f64() < SETUP_EXTRA_S)
    {
        let (sims, s, _) = session.set_up(&unchanged);
        setup_s.push(s);
        drop(sims);
    }
    let mut values = Values::new();
    if !ns_per_event.is_empty() {
        values.push(("ns_per_event".into(), stats::median(&ns_per_event)));
    }
    values.push(("setup_s".into(), stats::median(&setup_s)));
    if let Some(bytes) = peak_rss_bytes() {
        values.push(("peak_rss_mib".into(), bytes as f64 / (1024.0 * 1024.0)));
    }
    println!(
        "{} reps {} setup_samples {} ns_per_event_min {:.3} ns_per_event_max {:.3}",
        session.workload.name,
        ns_per_event.len(),
        setup_s.len(),
        stats::min(&ns_per_event),
        stats::max(&ns_per_event),
    );
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_report() -> RunReport {
        let cfg = ScenarioConfig::two_nodes(pcmac::Variant::Basic, 80.0, 100_000.0, 1)
            .with_duration(pcmac_engine::Duration::from_millis(500));
        Simulator::new(crate::workloads::with_metrics(cfg, true)).run()
    }

    #[test]
    fn planted_defects_are_failed_operations() {
        let good = small_report();
        assert_eq!(report_defect(&good), None);

        let mut judge = Judge::default();
        judge.operation(0, Ok(good.clone()), true);
        assert_eq!((judge.attempted, judge.failed), (1, 0));

        let mut silent = good.clone();
        silent.delivered_packets = 0;
        judge.operation(1, Ok(silent), true);
        assert_eq!((judge.attempted, judge.failed), (2, 1));

        let mut leaky = good.clone();
        leaky.metrics.as_mut().unwrap().drops.sent += 1;
        judge.operation(2, Ok(leaky), true);
        assert_eq!((judge.attempted, judge.failed), (3, 2));

        judge.operation(3, Err(Box::new("boom")), true);
        assert_eq!((judge.attempted, judge.failed), (4, 3));
    }

    #[test]
    fn planted_digest_disagreement_is_a_failed_operation() {
        let good = small_report();
        let mut other = good.clone();
        other.sent_packets += 1;
        let mut judge = Judge::default();
        judge.operation(0, Ok(good.clone()), true);
        judge.operation(0, Ok(good.clone()), true);
        assert_eq!(judge.failed, 0);
        assert!(judge.workload_digest().is_some());
        judge.operation(0, Ok(other.clone()), true);
        assert_eq!(judge.failed, 1);
        // A run of a different model (metrics flipped) is not compared.
        judge.operation(0, Ok(other), false);
        assert_eq!(judge.failed, 1);
    }
}
