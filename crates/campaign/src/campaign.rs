//! Campaign specifications: a base scenario spec expanded across named
//! parameter axes × seed lists into concrete runs.
//!
//! A campaign is the unit the paper's evaluation is actually made of —
//! Figures 8/9 are (variant × offered load × seed) grids, the power-level
//! table is a (level-set) sweep, and the design ablations (safety factor,
//! control-channel bandwidth, capture policy, handshake arity) are
//! single-knob sweeps over the [`crate::spec::PATCH_PATHS`] surface.
//!
//! The sweep dimensions are [`Axis`] values: first-class axes for the
//! common coordinates (offered load, node count, MAC variant, power-level
//! set) plus the generic [`Axis::Patch`] — a dotted path into the
//! scenario's parameter surface with a list of values. The historical
//! fixed grid ([`AxesSpec`]) is kept as sugar that lowers onto axes, so
//! existing spec files expand exactly as before.
//!
//! Expansion is lazy: [`CampaignSpec::grid`] builds only the per-point
//! *specs* (cheap), and [`CampaignGrid::scenarios`] materializes each
//! `(point × seed)` [`ScenarioConfig`] on demand as the parallel runner's
//! bounded work channel drains — a 10⁴-run campaign never holds more than
//! a few configs in memory. [`CampaignSpec::expand_vec`] keeps the eager
//! form for the CLI's `expand` subcommand and for parity tests.

use pcmac::{ScenarioConfig, Variant};
use serde::{Deserialize, Serialize, Value};

use crate::spec::{PlacementSpec, ScenarioSpec, SpecError};

/// The legacy fixed sweep grid. Every `None` axis stays at the base
/// spec's value; every `Some` axis multiplies the grid. Kept as sugar:
/// [`AxesSpec::lower`] turns it into the equivalent [`Axis`] list
/// (preserving the historical nesting order: load outermost, then node
/// count, then power-level set, then variant innermost).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AxesSpec {
    /// Aggregate offered loads (kbps).
    pub loads_kbps: Option<Vec<f64>>,
    /// Node counts (density sweeps).
    pub node_counts: Option<Vec<usize>>,
    /// MAC variants to compare.
    pub variants: Option<Vec<Variant>>,
    /// Discrete transmit power-level sets (mW, each strictly increasing).
    pub power_level_sets_mw: Option<Vec<Vec<f64>>>,
}

impl AxesSpec {
    /// Lower the fixed grid onto the general axis list.
    pub fn lower(&self) -> Vec<Axis> {
        self.keyed().into_iter().map(|(_, axis)| axis).collect()
    }

    /// [`AxesSpec::lower`], each axis with the key it came from.
    fn keyed(&self) -> Vec<(&'static str, Axis)> {
        let mut axes = Vec::new();
        if let Some(v) = &self.loads_kbps {
            axes.push(("loads_kbps", Axis::Load { values: v.clone() }));
        }
        if let Some(v) = &self.node_counts {
            axes.push(("node_counts", Axis::Nodes { values: v.clone() }));
        }
        if let Some(v) = &self.power_level_sets_mw {
            axes.push((
                "power_level_sets_mw",
                Axis::PowerLevels { sets_mw: v.clone() },
            ));
        }
        if let Some(v) = &self.variants {
            axes.push(("variants", Axis::Variants { values: v.clone() }));
        }
        axes
    }
}

/// One sweep dimension of a campaign. The cross-product of every axis's
/// values (first axis outermost) drives the expansion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Axis {
    /// Aggregate offered load (kbps).
    Load {
        /// The load points.
        values: Vec<f64>,
    },
    /// Node count (density sweeps).
    Nodes {
        /// The node counts.
        values: Vec<usize>,
    },
    /// MAC variant under test.
    Variants {
        /// The protocols to compare.
        values: Vec<Variant>,
    },
    /// Discrete transmit power-level set.
    PowerLevels {
        /// One level set (mW, strictly increasing) per axis value.
        sets_mw: Vec<Vec<f64>>,
    },
    /// Generic typed patch: a dotted path into the scenario's parameter
    /// surface (see [`crate::spec::PATCH_PATHS`]) and the values to sweep
    /// it over, e.g. `{"path": "mac.pcmac.safety_factor",
    /// "values": [0.5, 0.7, 0.9, 1.0]}`.
    Patch {
        /// Dotted parameter path.
        path: String,
        /// Raw JSON values, type-checked against the target field.
        values: Vec<Value>,
    },
}

impl Axis {
    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::Load { values } => values.len(),
            Axis::Nodes { values } => values.len(),
            Axis::Variants { values } => values.len(),
            Axis::PowerLevels { sets_mw } => sets_mw.len(),
            Axis::Patch { values, .. } => values.len(),
        }
    }

    /// `true` when the axis has no values (always a spec defect).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The canonical parameter path this axis sweeps — the identity
    /// used to detect two axes fighting over one knob (a first-class
    /// axis and the equivalent `Patch` path share it).
    pub fn knob(&self) -> &str {
        match self {
            Axis::Load { .. } => "traffic.offered_load_kbps",
            Axis::Nodes { .. } => "nodes.count",
            Axis::Variants { .. } => "variant",
            Axis::PowerLevels { .. } => "power_levels_mw",
            Axis::Patch { path, .. } => path,
        }
    }

    /// Display label: the axis kind, plus the path for patch axes.
    pub fn label(&self) -> String {
        match self {
            Axis::Load { .. } => "Load".into(),
            Axis::Nodes { .. } => "Nodes".into(),
            Axis::Variants { .. } => "Variants".into(),
            Axis::PowerLevels { .. } => "PowerLevels".into(),
            Axis::Patch { path, .. } => format!("Patch `{path}`"),
        }
    }

    /// Check the axis: it has values, a `Nodes` axis counts at least 2
    /// on a placement that takes a count, and every value applies to a
    /// copy of `base`. That types a patch and, when the base itself is
    /// valid, catches a value the spec rejects (a negative load, a
    /// non-increasing level set, a negative safety factor, …) here
    /// rather than at expansion time.
    fn validate(&self, base: &ScenarioSpec, base_ok: bool, problems: &mut Vec<String>) {
        if self.is_empty() {
            problems.push(format!("{} axis is empty", self.label()));
            return;
        }
        if let Axis::Nodes { values } = self {
            if values.iter().any(|c| *c < 2) {
                problems.push("node counts must be at least 2".into());
            }
            if matches!(
                base.nodes.placement,
                PlacementSpec::Density { .. } | PlacementSpec::Explicit { .. }
            ) {
                problems.push(
                    "Nodes axis conflicts with a placement that implies its own count".into(),
                );
            }
        }
        let knob = self.knob();
        for i in 0..self.len() {
            let at = |e: SpecError| {
                e.problems
                    .into_iter()
                    .map(move |p| format!("axis `{knob}` value {i}: {p}"))
            };
            let mut probe = base.clone();
            if let Err(e) = self.apply(i, &mut probe, &mut Vec::new()) {
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

    /// Apply value `idx` of this axis to `spec`. Patch-axis coordinates
    /// are also recorded in `patches` so the grid point's key names them.
    fn apply(
        &self,
        idx: usize,
        spec: &mut ScenarioSpec,
        patches: &mut Vec<(String, Value)>,
    ) -> Result<(), SpecError> {
        match self {
            Axis::Load { values } => spec.traffic.offered_load_kbps = values[idx],
            Axis::Nodes { values } => spec.nodes.count = Some(values[idx]),
            Axis::Variants { values } => spec.variant = values[idx],
            Axis::PowerLevels { sets_mw } => spec.power_levels_mw = Some(sets_mw[idx].clone()),
            Axis::Patch { path, values } => {
                spec.apply_patch(path, &values[idx])?;
                patches.push((path.clone(), values[idx].clone()));
            }
        }
        Ok(())
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
    /// explicit `duration_s` Patch axis still wins.
    pub duration_s: Option<f64>,
    /// Seeds run (and later averaged) per grid point.
    pub seeds: Vec<u64>,
    /// Legacy fixed sweep grid (sugar; lowered onto axes first).
    pub axes: Option<AxesSpec>,
    /// General sweep axes, appended after the lowered legacy grid. Each
    /// axis multiplies the grid; [`Axis::Patch`] reaches any knob on the
    /// [`crate::spec::PATCH_PATHS`] surface.
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
    /// Generic patch-axis coordinates `(path, value)` in axis order;
    /// `None` when the campaign sweeps no patch axes.
    pub patches: Option<Vec<(String, Value)>>,
}

impl PointKey {
    /// The swept patch knobs as `name=value` pairs (`-` when none) — the
    /// column that distinguishes rows of a patch-axis campaign.
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
    /// Every sweep dimension in expansion order: the lowered legacy grid
    /// first, then the general `sweep` axes.
    pub fn axes_list(&self) -> Vec<Axis> {
        let mut axes = self.axes.as_ref().map(AxesSpec::lower).unwrap_or_default();
        if let Some(sweep) = &self.sweep {
            axes.extend(sweep.iter().cloned());
        }
        axes
    }

    /// The spec every cell starts from: the base with the campaign
    /// duration override in place. It applies before the axes, so an
    /// explicit `duration_s` Patch axis wins over it, keeping every
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
        // The legacy grid is checked as the axes it lowers to; each
        // problem names the key it came from.
        for (key, axis) in self.axes.as_ref().map(AxesSpec::keyed).unwrap_or_default() {
            let mut found = Vec::new();
            axis.validate(&base, base_ok, &mut found);
            problems.extend(found.into_iter().map(|p| format!("axes.{key}: {p}")));
        }
        for axis in self.sweep.iter().flatten() {
            axis.validate(&base, base_ok, &mut problems);
        }
        // Two axes sweeping the same knob would produce duplicate points
        // whose keys collide (the later axis value silently wins). The
        // comparison is by *target knob*, not label, so a first-class
        // axis and its Patch-path equivalent (e.g. `Load` and
        // `traffic.offered_load_kbps`) collide too.
        let axes = self.axes_list();
        let mut seen: Vec<&str> = Vec::new();
        for axis in &axes {
            let knob = axis.knob();
            if seen.contains(&knob) {
                problems.push(format!(
                    "axes {} sweep the same knob `{knob}`; merge their values into one axis",
                    axes.iter()
                        .filter(|a| a.knob() == knob)
                        .map(Axis::label)
                        .collect::<Vec<_>>()
                        .join(" and ")
                ));
            } else {
                seen.push(knob);
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
        self.axes_list().iter().map(|a| a.len().max(1)).product()
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
        let axes = self.axes_list();
        let lens: Vec<usize> = axes.iter().map(Axis::len).collect();
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
                if let Err(e) = axis.apply(i, &mut spec, &mut patches) {
                    cell_problems.extend(e.problems);
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

    /// Parse from JSON (no validation — call [`CampaignSpec::validate`]).
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}
