//! Campaign specifications: a base scenario spec expanded across named
//! parameter axes × seed lists into concrete runs.
//!
//! A campaign is the unit the paper's evaluation is actually made of —
//! Figures 8/9 are (variant × offered load × seed) grids, the power-level
//! table is a (level-set) sweep, and the design ablations (safety factor,
//! control-channel bandwidth, capture policy, handshake arity) are
//! single-knob sweeps.
//!
//! Every sweep dimension is one [`Axis`]: a dotted path into the base
//! spec's JSON and the values to set it to, applied through
//! [`ScenarioSpec::apply_patch`]. Offered load is
//! `traffic.offered_load_kbps`, the protocol `variant`, the §III safety
//! factor `protocol.safety_factor`; there is no second spelling. A
//! point's [`PointKey`] carries the variant, load, node count and level
//! set in fields of its own and every other swept path in `patches`.
//!
//! Expansion is lazy: [`CampaignSpec::grid`] builds only the per-point
//! *specs* (cheap), and [`CampaignGrid::scenarios`] materializes each
//! `(point × seed)` [`ScenarioConfig`] on demand as the parallel runner's
//! bounded work channel drains — a 10⁴-run campaign never holds more than
//! a few configs in memory. [`CampaignSpec::expand_vec`] keeps the eager
//! form for the CLI's `expand` subcommand and for parity tests.

use pcmac::ScenarioConfig;
use serde::{Deserialize, Serialize, Value};

use crate::spec::{from_tree, ScenarioSpec, SpecError};

/// The paths a [`PointKey`] carries in its own fields; an axis over any
/// other path is recorded in [`PointKey::patches`].
const KEYED_PATHS: [&str; 4] = [
    "variant",
    "traffic.offered_load_kbps",
    "nodes.count",
    "power_levels_mw",
];

/// One sweep dimension of a campaign: a dotted spec path and the values
/// to set it to, e.g. `{"path": "protocol.safety_factor", "values":
/// [0.5, 0.7, 0.9, 1.0]}`. The cross-product of every axis's values
/// (first axis outermost) drives the expansion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// The field it sets ([`ScenarioSpec::apply_patch`]).
    pub path: String,
    /// One JSON value per grid step, set whole at `path`.
    pub values: Vec<Value>,
}

impl Axis {
    /// An axis over `path` taking each of `values` in turn.
    pub fn new<T: Serialize>(path: &str, values: &[T]) -> Self {
        Axis {
            path: path.into(),
            values: values.iter().map(Serialize::to_value).collect(),
        }
    }

    /// Check the axis: it has values, and every value applies to a copy
    /// of `base`. When the base itself is valid, each patched copy must
    /// validate too, so a value the spec rejects (a negative load, a
    /// non-increasing level set, a negative safety factor, …) is caught
    /// here rather than at expansion time.
    fn validate(&self, base: &ScenarioSpec, base_ok: bool, problems: &mut Vec<String>) {
        let path = &self.path;
        if self.values.is_empty() {
            problems.push(format!("axis `{path}` is empty"));
        }
        for (i, value) in self.values.iter().enumerate() {
            let mut probe = base.clone();
            let at = |e: SpecError| {
                e.problems
                    .into_iter()
                    .map(move |p| format!("axis `{path}` value {i}: {p}"))
            };
            if let Err(e) = probe.apply_patch(path, value) {
                problems.extend(at(e));
                // An unknown path fails identically for every value; one
                // report suffices.
                break;
            }
            if base_ok {
                if let Err(e) = probe.validate() {
                    problems.extend(at(e));
                }
            }
        }
    }
}

/// A declarative campaign: base spec × axes × seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSpec {
    /// Campaign label; the output artifact is `CAMPAIGN_<name>.json`.
    pub name: String,
    /// The scenario every grid point starts from.
    pub base: ScenarioSpec,
    /// Override the base spec's duration (s) for every run — shrinking a
    /// published campaign for smoke tests without editing the base. It
    /// replaces the *base* duration before the axes apply, so an
    /// explicit `duration_s` axis still wins.
    pub duration_s: Option<f64>,
    /// Seeds run (and later averaged) per grid point.
    pub seeds: Vec<u64>,
    /// The sweep axes, first outermost; each multiplies the grid.
    /// `None` runs the base alone.
    pub sweep: Option<Vec<Axis>>,
}

/// The coordinates of one grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointKey {
    /// Protocol name (paper naming).
    pub variant: String,
    /// Aggregate offered load (kbps).
    pub load_kbps: f64,
    /// Node count.
    pub node_count: usize,
    /// Power-level set (mW) of the point's spec, when it overrides the
    /// paper's ten classes.
    pub power_levels_mw: Option<Vec<f64>>,
    /// The coordinates `(path, value)` of every axis over a path the
    /// fields above do not carry, in axis order; `None` when there are
    /// none.
    pub patches: Option<Vec<(String, Value)>>,
}

impl PointKey {
    /// The swept knobs of [`PointKey::patches`] as `name=value` pairs
    /// (`-` when none) — the column that distinguishes rows of an
    /// ablation campaign.
    pub fn patches_label(&self) -> String {
        match &self.patches {
            None => "-".into(),
            Some(ps) => ps
                .iter()
                .map(|(path, v)| {
                    let knob = path.rsplit('.').next().unwrap_or(path);
                    format!("{knob}={}", value_str(v))
                })
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    /// Human-readable point label: the protocol plus any swept knobs.
    pub fn label(&self) -> String {
        match &self.patches {
            None => self.variant.clone(),
            Some(_) => format!("{} {}", self.variant, self.patches_label()),
        }
    }
}

fn value_str(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_else(|_| format!("{other:?}")),
    }
}

/// One grid point: its coordinates and one concrete scenario per seed.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// Grid coordinates.
    pub key: PointKey,
    /// Seeds, aligned with `scenarios`.
    pub seeds: Vec<u64>,
    /// One runnable scenario per seed.
    pub scenarios: Vec<ScenarioConfig>,
}

/// One cell of an expanded grid: the point's coordinates and its fully
/// patched (but not yet materialized) spec.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Grid coordinates.
    pub key: PointKey,
    /// The base spec with every axis value and the campaign duration
    /// override applied. Validated at grid-build time.
    pub spec: ScenarioSpec,
}

/// The expanded-but-unmaterialized form of a campaign: one [`GridCell`]
/// per point. Holding specs instead of `(point × seed)` configs keeps
/// memory O(points); [`CampaignGrid::scenarios`] materializes runs
/// on demand.
#[derive(Debug, Clone)]
pub struct CampaignGrid {
    /// Seeds run per cell.
    pub seeds: Vec<u64>,
    /// Grid cells in expansion order (first axis outermost).
    pub cells: Vec<GridCell>,
}

impl CampaignGrid {
    /// Number of grid points.
    pub fn point_count(&self) -> usize {
        self.cells.len()
    }

    /// Total runs (points × seeds).
    pub fn run_count(&self) -> usize {
        self.cells.len() * self.seeds.len()
    }

    /// Lazily materialize every `(cell × seed)` scenario, point-major and
    /// seed-minor — the stream the campaign runner consumes.
    ///
    /// Every cell spec was validated when the grid was built, and
    /// validity does not depend on the seed, so these are expected to
    /// succeed. A failure still comes back as an `Err` naming the cell
    /// and seed, which the runner records as a failed point instead of
    /// aborting the whole sweep.
    pub fn scenarios(&self) -> impl Iterator<Item = Result<ScenarioConfig, SpecError>> + '_ {
        self.cells.iter().flat_map(move |cell| {
            self.seeds.iter().map(move |&seed| {
                cell.spec.materialize(seed).map_err(|e| SpecError {
                    problems: e
                        .problems
                        .into_iter()
                        .map(|p| format!("grid cell `{}` seed {seed}: {p}", cell.key.label()))
                        .collect(),
                })
            })
        })
    }
}

impl CampaignSpec {
    /// The sweep axes in expansion order (none without a `sweep`).
    pub fn axes(&self) -> &[Axis] {
        self.sweep.as_deref().unwrap_or_default()
    }

    /// The spec every cell starts from: the base with the campaign
    /// duration override in place. It applies before the axes, so an
    /// explicit `duration_s` axis wins over it, keeping every
    /// point's key truthful about what actually ran.
    fn cell_base(&self) -> ScenarioSpec {
        let mut spec = self.base.clone();
        if let Some(d) = self.duration_s {
            spec.duration_s = d;
        }
        spec
    }

    /// Check the campaign (base spec under the duration override, seeds,
    /// every axis) with actionable messages.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut problems = Vec::new();
        let base = self.cell_base();
        let base_ok = match base.validate() {
            Ok(()) => true,
            Err(e) => {
                problems.extend(e.problems.into_iter().map(|p| format!("base: {p}")));
                false
            }
        };
        if self.seeds.is_empty() {
            problems.push("campaign has no seeds".into());
        }
        let axes = self.axes();
        for (i, axis) in axes.iter().enumerate() {
            axis.validate(&base, base_ok, &mut problems);
            // Two axes over one path would produce duplicate points
            // whose keys collide (the later value silently wins).
            if axes[..i].iter().any(|a| a.path == axis.path) {
                problems.push(format!(
                    "two axes sweep the same knob `{}`; merge their values into one axis",
                    axis.path
                ));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(SpecError { problems })
        }
    }

    /// Number of grid points (before seeds).
    pub fn point_count(&self) -> usize {
        self.axes().iter().map(|a| a.values.len().max(1)).product()
    }

    /// Total runs the campaign will execute.
    pub fn run_count(&self) -> usize {
        self.point_count() * self.seeds.len()
    }

    /// Expand the axes into the grid skeleton: validate, take the
    /// cross-product of every axis (first axis outermost), apply each
    /// combination to a copy of the base spec, and validate every cell.
    /// No scenario is materialized; use [`CampaignGrid::scenarios`] (lazy)
    /// or [`CampaignSpec::expand_vec`] (eager).
    pub fn grid(&self) -> Result<CampaignGrid, SpecError> {
        self.validate()?;
        let axes = self.axes();
        let lens: Vec<usize> = axes.iter().map(|a| a.values.len()).collect();
        let total: usize = lens.iter().product();

        let mut cells = Vec::with_capacity(total);
        let mut idx = vec![0usize; axes.len()];
        // Defective cells don't abort the expansion: every cell is
        // checked and the full defect list comes back in one error, so
        // `validate`/`run` report everything wrong with a campaign at
        // once instead of one cell per invocation.
        let mut problems = Vec::new();
        for mut n in 0..total {
            for (k, &len) in lens.iter().enumerate().rev() {
                idx[k] = n % len;
                n /= len;
            }
            let mut spec = self.cell_base();
            let mut patches = Vec::new();
            let mut cell_problems = Vec::new();
            for (axis, &i) in axes.iter().zip(&idx) {
                let value = &axis.values[i];
                if let Err(e) = spec.apply_patch(&axis.path, value) {
                    cell_problems.extend(e.problems);
                }
                if !KEYED_PATHS.contains(&axis.path.as_str()) {
                    patches.push((axis.path.clone(), value.clone()));
                }
            }
            let node_count = match spec.node_count() {
                Ok(c) => c,
                Err(e) => {
                    cell_problems.extend(e.problems);
                    0
                }
            };
            let key = PointKey {
                variant: spec.variant.name().to_string(),
                load_kbps: spec.traffic.offered_load_kbps,
                node_count,
                power_levels_mw: spec.power_levels_mw.clone(),
                patches: (!patches.is_empty()).then_some(patches),
            };
            if let Err(e) = spec.validate() {
                cell_problems.extend(e.problems);
            }
            if cell_problems.is_empty() {
                cells.push(GridCell { key, spec });
            } else {
                // `node_count()` runs again inside `validate`, so the
                // same defect can surface twice; report each once.
                let label = key.label();
                for p in cell_problems {
                    let msg = format!("grid cell `{label}`: {p}");
                    if !problems.contains(&msg) {
                        problems.push(msg);
                    }
                }
            }
        }
        if !problems.is_empty() {
            return Err(SpecError { problems });
        }
        Ok(CampaignGrid {
            seeds: self.seeds.clone(),
            cells,
        })
    }

    /// Eagerly materialize the whole grid: one [`CampaignPoint`] per
    /// cell, holding one [`ScenarioConfig`] per seed. Convenient for the
    /// CLI's `expand` subcommand and for parity tests; prefer
    /// [`CampaignSpec::grid`] + [`CampaignGrid::scenarios`] for running.
    pub fn expand_vec(&self) -> Result<Vec<CampaignPoint>, SpecError> {
        let grid = self.grid()?;
        let mut points = Vec::with_capacity(grid.cells.len());
        for cell in &grid.cells {
            let scenarios: Vec<ScenarioConfig> = grid
                .seeds
                .iter()
                .map(|&seed| cell.spec.materialize(seed))
                .collect::<Result<_, _>>()?;
            points.push(CampaignPoint {
                key: cell.key.clone(),
                seeds: grid.seeds.clone(),
                scenarios,
            });
        }
        Ok(points)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("specs always serialize")
    }

    /// Parse from JSON, refusing unknown keys (no validation — call
    /// [`CampaignSpec::validate`]).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        Ok(from_tree(&serde_json::from_str(json)?)?)
    }
}
