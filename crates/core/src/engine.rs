//! Top-level simultaneous place-and-route driver.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use rowfpga_anneal::{
    anneal_parallel_observed, replica_seed, AnnealConfig, Annealer, ParallelConfig,
};
use rowfpga_arch::Architecture;
use rowfpga_netlist::{CombLoopError, Netlist};
use rowfpga_obs::{Event, Json, Obs, RerouteRecord};
use rowfpga_place::{CreatePlacementError, MoveWeights, Placement};
use rowfpga_route::{route_batch_observed, RouterConfig, RoutingState};
use rowfpga_timing::{CriticalPath, Sta};

use crate::cost::CostConfig;
use crate::dynamics::DynamicsTrace;
#[cfg(feature = "fault-inject")]
use crate::fault::FaultPlan;
use crate::problem::LayoutProblem;
use crate::snapshot::{
    arch_fingerprint, netlist_fingerprint, BestLayout, Checkpoint, CheckpointError, WriteFault,
    CHECKPOINT_VERSION,
};

/// Errors the layout engines can raise.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// The design does not fit the chip.
    Placement(CreatePlacementError),
    /// The design has a combinational loop; timing is undefined.
    CombLoop(CombLoopError),
    /// Checkpoint I/O, decoding or validation failed.
    Checkpoint(CheckpointError),
    /// The self-audit found a divergence that bounded repair could not
    /// clear (repair rebuilds from ground truth, so this indicates a bug
    /// or active corruption, not a recoverable condition).
    Audit {
        /// The divergence that survived every repair attempt.
        detail: String,
    },
    /// A run with more than one annealing replica was configured with a
    /// setting only a single replica supports (checkpointing, resume or
    /// the self-audit); the run did not start.
    Unsupported {
        /// The [`ResilienceConfig`] field that is set.
        setting: &'static str,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::Placement(e) => write!(f, "placement failed: {e}"),
            LayoutError::CombLoop(e) => write!(f, "timing undefined: {e}"),
            LayoutError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
            LayoutError::Audit { detail } => write!(f, "unrepairable state divergence: {detail}"),
            LayoutError::Unsupported { setting } => {
                write!(f, "`{setting}` is not supported with more than one replica")
            }
        }
    }
}

impl Error for LayoutError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LayoutError::Placement(e) => Some(e),
            LayoutError::CombLoop(e) => Some(e),
            LayoutError::Checkpoint(e) => Some(e),
            LayoutError::Audit { .. } | LayoutError::Unsupported { .. } => None,
        }
    }
}

/// Why a layout run returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The annealing schedule terminated normally.
    Converged,
    /// The wall-clock or temperature budget expired; the result is the
    /// best layout reached by then.
    Deadline,
    /// A stop was requested (e.g. SIGINT); the result is the best layout
    /// reached by then.
    Interrupted,
    /// The schedule converged, but only after at least one audit-triggered
    /// state repair along the way.
    Repaired,
}

impl StopReason {
    /// The journal spelling of the reason.
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::Deadline => "deadline",
            StopReason::Interrupted => "interrupted",
            StopReason::Repaired => "repaired",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A cooperative stop request, checked between temperature steps (with
/// several replicas, at every exchange round): the current temperature
/// or round always finishes, then the run writes its final checkpoint
/// and returns with [`StopReason::Interrupted`].
///
/// Cloning shares the flag; [`StopFlag::watching`] additionally observes a
/// `'static` atomic (the shape a signal handler can set).
#[derive(Clone, Debug)]
pub struct StopFlag {
    local: Arc<AtomicBool>,
    external: Option<&'static AtomicBool>,
    armed: bool,
}

impl StopFlag {
    /// A flag that can never fire — the zero-overhead default of
    /// [`SimultaneousPlaceRoute::run`].
    pub fn none() -> StopFlag {
        StopFlag {
            local: Arc::new(AtomicBool::new(false)),
            external: None,
            armed: false,
        }
    }

    /// A flag fired by calling [`StopFlag::request_stop`] on any clone.
    pub fn manual() -> StopFlag {
        StopFlag {
            armed: true,
            ..StopFlag::none()
        }
    }

    /// A flag that also observes `external` — typically a static the
    /// process's signal handler sets.
    pub fn watching(external: &'static AtomicBool) -> StopFlag {
        StopFlag {
            local: Arc::new(AtomicBool::new(false)),
            external: Some(external),
            armed: true,
        }
    }

    /// Requests a graceful stop.
    pub fn request_stop(&self) {
        self.local.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn is_set(&self) -> bool {
        self.local.load(Ordering::SeqCst) || self.external.is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Whether this flag could ever fire (false only for
    /// [`StopFlag::none`]); an armed flag turns on best-so-far tracking.
    pub fn armed(&self) -> bool {
        self.armed
    }
}

impl Default for StopFlag {
    fn default() -> Self {
        StopFlag::none()
    }
}

/// Resilience knobs of a run: checkpoint cadence, resume source, stop
/// budgets, and the self-audit/repair loop. The default disables
/// everything, keeping the engine's hot path untouched.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceConfig {
    /// Write checkpoints here ([`None`] disables checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Write a checkpoint every this many temperatures (minimum 1); a
    /// final checkpoint is also written whenever a run stops early.
    pub checkpoint_every: usize,
    /// Retention depth: keep this many snapshot generations next to
    /// `checkpoint_path` (see [`crate::generation_path`]), deleting older
    /// ones after each successful write. The base path always holds the
    /// newest snapshot. `0` disables generations entirely (single-file
    /// checkpointing); GC never deletes the only valid snapshot.
    pub checkpoint_keep: usize,
    /// Resume from this checkpoint instead of a fresh random placement.
    /// When the file is missing or corrupt, the newest valid retention
    /// generation is loaded instead (corrupt generations are quarantined);
    /// only if no generation decodes either does the resume fail.
    pub resume_path: Option<PathBuf>,
    /// Wall-clock budget; the run finishes the current temperature,
    /// checkpoints, and returns [`StopReason::Deadline`].
    pub deadline: Option<Duration>,
    /// Whole-run temperature budget (counts resumed temperatures too);
    /// stopping on it is also tagged [`StopReason::Deadline`]. Unlike the
    /// wall-clock deadline it is deterministic, which makes it the lever
    /// the resume-equivalence tests use.
    pub temp_budget: Option<usize>,
    /// Run the self-audit every this many temperatures (0 disables).
    pub audit_every: usize,
    /// Repair attempts per failed audit before giving up.
    pub max_repairs: usize,
    /// Deterministic fault schedule delivered at temperature boundaries
    /// (test builds only).
    #[cfg(feature = "fault-inject")]
    pub faults: Option<FaultPlan>,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            checkpoint_path: None,
            checkpoint_every: 5,
            checkpoint_keep: 3,
            resume_path: None,
            deadline: None,
            temp_budget: None,
            audit_every: 0,
            max_repairs: 3,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}

impl ResilienceConfig {
    /// Whether any resilience feature is on (turns on best-so-far
    /// tracking).
    pub fn enabled(&self) -> bool {
        #[cfg(feature = "fault-inject")]
        if self.faults.is_some() {
            return true;
        }
        self.checkpoint_path.is_some()
            || self.resume_path.is_some()
            || self.deadline.is_some()
            || self.temp_budget.is_some()
            || self.audit_every > 0
    }

    /// The first setting a multi-replica run cannot honour: checkpoints,
    /// resume and audits act on one replica's state between temperatures.
    fn single_replica_setting(&self) -> Option<&'static str> {
        if self.checkpoint_path.is_some() {
            Some("checkpoint_path")
        } else if self.resume_path.is_some() {
            Some("resume_path")
        } else if self.audit_every > 0 {
            Some("audit_every")
        } else {
            None
        }
    }

    /// Why a run that started at `start` should stop at a boundary with
    /// `temps` temperatures completed, if it should.
    fn stop_reason(&self, stop: &StopFlag, start: Instant, temps: usize) -> Option<StopReason> {
        if stop.is_set() {
            Some(StopReason::Interrupted)
        } else if self.deadline.is_some_and(|d| start.elapsed() >= d)
            || self.temp_budget.is_some_and(|b| temps >= b)
        {
            Some(StopReason::Deadline)
        } else {
            None
        }
    }
}

/// Configuration of the simultaneous flow.
#[derive(Clone, Debug, PartialEq)]
pub struct SimPrConfig {
    /// Incremental router weights.
    pub router: RouterConfig,
    /// Annealing schedule. A `moves_per_temp` of 0 selects the automatic
    /// `n^(4/3)` budget for `n` cells.
    pub anneal: AnnealConfig,
    /// Cost component emphasis.
    pub cost: CostConfig,
    /// Move class mix.
    pub move_weights: MoveWeights,
    /// Seed of the initial random placement.
    pub placement_seed: u64,
    /// Rip-up-and-retry rounds of the final repair pass (placement frozen),
    /// applied only if annealing ends with unrouted nets; 0 disables.
    pub final_repair_passes: usize,
    /// Greedy zero-temperature cleanup moves attempted when annealing
    /// freezes with unrouted nets left (only improving or neutral moves are
    /// accepted); 0 disables.
    pub cleanup_moves: usize,
    /// Checkpoint/resume, deadlines and the self-audit loop.
    pub resilience: ResilienceConfig,
    /// Annealing replicas, each on its own thread (1 = the sequential
    /// engine on the calling thread; 0 counts as 1). Every entry point of
    /// [`SimultaneousPlaceRoute`] honours it. With more than one replica,
    /// stop requests, the wall-clock deadline and the temperature budget
    /// take effect at the next exchange round, and checkpointing, resume
    /// and audits are rejected with [`LayoutError::Unsupported`].
    pub threads: usize,
}

impl Default for SimPrConfig {
    fn default() -> Self {
        Self {
            router: RouterConfig::default(),
            anneal: AnnealConfig {
                moves_per_temp: 0, // auto
                ..AnnealConfig::default()
            },
            cost: CostConfig::default(),
            move_weights: MoveWeights::default(),
            placement_seed: 1,
            final_repair_passes: 6,
            cleanup_moves: 20_000,
            resilience: ResilienceConfig::default(),
            threads: 1,
        }
    }
}

impl SimPrConfig {
    /// A low-effort profile for tests and smoke runs.
    pub fn fast() -> Self {
        Self {
            anneal: AnnealConfig {
                moves_per_temp: 0,
                max_temps: 40,
                ..AnnealConfig::fast()
            },
            ..Self::default()
        }
    }

    /// Sets the seeds (placement and annealing) together.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.placement_seed = seed;
        self.anneal.seed = seed.wrapping_add(0x9e37);
        self
    }
}

/// A finished layout with its quality metrics.
#[derive(Clone, Debug)]
pub struct LayoutResult {
    /// Final cell placement (and pinmaps).
    pub placement: Placement,
    /// Final routing state.
    pub routing: RoutingState,
    /// Whether every net was fully routed.
    pub fully_routed: bool,
    /// Nets without a global route at the end.
    pub globally_unrouted: usize,
    /// Nets without a complete detailed route at the end.
    pub incomplete: usize,
    /// Worst-case path delay (ps) from the final standalone analysis.
    pub worst_delay: f64,
    /// The critical path of the final layout.
    pub critical_path: CriticalPath,
    /// Per-temperature dynamics (paper Figure 6 data). A resumed run's
    /// trace includes the temperatures recorded before the checkpoint.
    pub dynamics: DynamicsTrace,
    /// Temperatures executed by the annealer over the whole run.
    pub temperatures: usize,
    /// Total annealing moves attempted over the whole run.
    pub total_moves: usize,
    /// Wall-clock time of this process's share of the run.
    pub runtime: Duration,
    /// Why the run returned.
    pub stop_reason: StopReason,
    /// Audit-triggered repairs performed during the run (carried across
    /// resume).
    pub repairs: usize,
}

/// What the anneal phase hands the shared tail of
/// [`SimultaneousPlaceRoute::run_with_stop`].
struct Annealed<'a> {
    /// The annealed layout (the winning replica's, with several).
    problem: LayoutProblem<'a>,
    stop_reason: StopReason,
    /// Best-so-far layout, for degrading an early-stopped run.
    best: Option<BestLayout>,
    temperatures: usize,
    total_moves: usize,
    repairs: usize,
    /// The annealing seed of the layout's replica; it seeds the cleanup.
    anneal_seed: u64,
}

/// The paper's simultaneous placement, global and detailed routing tool.
#[derive(Clone, Debug)]
pub struct SimultaneousPlaceRoute {
    config: SimPrConfig,
}

impl SimultaneousPlaceRoute {
    /// Creates a driver with the given configuration.
    pub fn new(config: SimPrConfig) -> SimultaneousPlaceRoute {
        SimultaneousPlaceRoute { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimPrConfig {
        &self.config
    }

    /// Lays out `netlist` on `arch`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the design does not fit the chip or
    /// contains a combinational loop.
    pub fn run(&self, arch: &Architecture, netlist: &Netlist) -> Result<LayoutResult, LayoutError> {
        self.run_observed(arch, netlist, "design", &Obs::disabled())
    }

    /// Like [`SimultaneousPlaceRoute::run`], with an observability handle:
    /// the run emits a `run_start` header (seed and configuration), one
    /// `temperature` and one `dynamics` event per annealing temperature,
    /// `reroute` summaries, `audit`/`repair`/`checkpoint` events when the
    /// resilience layer is active, and a `stop` + `run_end` footer with a
    /// metrics snapshot; phase spans cover warmup, annealing, cleanup,
    /// final repair, and the final timing analysis. `label` names the
    /// design in the journal. A disabled handle makes this identical to
    /// `run`.
    pub fn run_observed(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
        label: &str,
        obs: &Obs,
    ) -> Result<LayoutResult, LayoutError> {
        self.run_with_stop(arch, netlist, label, obs, &StopFlag::none())
    }

    /// Like [`SimultaneousPlaceRoute::run_observed`], with a cooperative
    /// [`StopFlag`]: when it fires, the run finishes the current
    /// temperature (with [`SimPrConfig::threads`] `> 1`, the current
    /// exchange round), writes a final checkpoint (if checkpointing is
    /// configured) and returns its best-so-far layout tagged
    /// [`StopReason::Interrupted`].
    ///
    /// This is the one layout driver; the other entry points forward to
    /// it. The replica count only changes the anneal phase: one replica
    /// anneals temperature by temperature on the calling thread, several
    /// run [`anneal_parallel_observed`] and stop together at an exchange
    /// boundary. Either way the annealed layout then gets the same
    /// zero-temperature cleanup, final repair pass and standalone timing
    /// analysis.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the design does not fit the chip,
    /// contains a combinational loop, a configured resume checkpoint does
    /// not load or match this design and seeds, the self-audit finds an
    /// unrepairable divergence, or more than one replica is asked to
    /// checkpoint, resume or audit ([`LayoutError::Unsupported`]).
    pub fn run_with_stop(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
        label: &str,
        obs: &Obs,
        stop: &StopFlag,
    ) -> Result<LayoutResult, LayoutError> {
        // rowfpga-lint: allow(determinism) reason=wall-clock is deadline/telemetry only and never steers the search
        let start = Instant::now();
        let threads = self.config.threads.max(1);
        if threads > 1 {
            if let Some(setting) = self.config.resilience.single_replica_setting() {
                return Err(LayoutError::Unsupported { setting });
            }
        }
        if obs.enabled() {
            obs.emit(Event::RunStart {
                flow: "simultaneous".into(),
                benchmark: label.into(),
                seed: self.config.placement_seed,
                config: self.config_capture(netlist),
            });
        }
        let mut anneal_cfg = self.config.anneal.clone();
        if anneal_cfg.moves_per_temp == 0 {
            anneal_cfg.moves_per_temp = AnnealConfig::moves_for_cells(netlist.num_cells(), 1.0);
        }
        // Fail fast on the caller's thread: replica construction inside
        // worker threads can only fail the same ways, so these checks make
        // the replica factory's panics unreachable.
        Placement::check_fits(arch, netlist).map_err(LayoutError::Placement)?;
        LayoutProblem::check_levelizable(netlist).map_err(LayoutError::CombLoop)?;

        let mut run = if threads == 1 {
            self.anneal_one(arch, netlist, obs, stop, start, &anneal_cfg)?
        } else {
            self.anneal_replicas(arch, netlist, obs, stop, start, &anneal_cfg, threads)?
        };

        // Zero-temperature cleanup: when the schedule froze with a few nets
        // still unrouted, a burst of greedy (improving-only) moves usually
        // shakes the last stragglers loose — the placement-level leverage of
        // §2.1 applied once more, without the stochastic uphill component.
        // Early-stopped runs skip it: they return promptly with what they
        // have.
        if run.stop_reason == StopReason::Converged
            && run.problem.routing().incomplete() > 0
            && self.config.cleanup_moves > 0
        {
            use rand::SeedableRng as _;
            use rowfpga_anneal::AnnealProblem as _;
            obs.span_start("cleanup");
            let mut rng = rand::rngs::StdRng::seed_from_u64(run.anneal_seed.wrapping_add(0x51ea9));
            for _ in 0..self.config.cleanup_moves {
                let (applied, delta) = run.problem.propose_and_apply(&mut rng);
                obs.inc("cleanup.moves");
                if delta <= 0.0 {
                    run.problem.commit(applied);
                    obs.inc("cleanup.accepted");
                } else {
                    run.problem.undo(applied);
                }
                if run.problem.routing().incomplete() == 0 {
                    break;
                }
            }
            obs.span_end("cleanup");
        }

        let final_cost = {
            use rowfpga_anneal::AnnealProblem as _;
            run.problem.cost()
        };
        let current_key = (
            run.problem.routing().incomplete(),
            run.problem.routing().globally_unrouted(),
            run.problem.timing().worst(),
        );
        let (mut placement, mut routing, dynamics) = run.problem.into_parts();
        if run.stop_reason == StopReason::Converged {
            if !routing.is_fully_routed() && self.config.final_repair_passes > 0 {
                // Placement is frozen now; a few rip-up-and-retry rounds often
                // recover the last stragglers, exactly as a sequential flow's
                // router would.
                let repair = obs.span("final_repair", || {
                    route_batch_observed(
                        &mut routing,
                        arch,
                        netlist,
                        &placement,
                        &self.config.router,
                        self.config.final_repair_passes,
                        obs,
                    )
                });
                if obs.enabled() {
                    obs.add("route.detail_failures", repair.detail_failures as u64);
                    obs.emit(Event::Reroute {
                        scope: "final_repair".into(),
                        stats: RerouteRecord {
                            globally_routed: repair.globally_routed,
                            detail_routed: repair.detail_routed,
                            detail_failures: repair.detail_failures,
                        },
                    });
                }
            }
        } else if let Some(b) = run.best.as_ref().filter(|b| b.key() < current_key) {
            // Degradation: the run is returning early, and a strictly
            // better layout was seen along the way — hand that one back.
            if let (Ok(p), Ok(r)) = (
                Placement::from_parts(arch, netlist, &b.sites, &b.pinmaps),
                RoutingState::restore(arch, netlist, &b.routes),
            ) {
                placement = p;
                routing = r;
            }
        }

        let sta = obs.span("final_sta", || {
            Sta::analyze_observed(arch, netlist, &placement, &routing, obs)
                .map_err(LayoutError::CombLoop)
        })?;
        let critical_path = sta.critical_path(netlist);
        if run.stop_reason == StopReason::Converged && run.repairs > 0 {
            run.stop_reason = StopReason::Repaired;
        }
        let result = LayoutResult {
            fully_routed: routing.is_fully_routed(),
            globally_unrouted: routing.globally_unrouted(),
            incomplete: routing.incomplete(),
            worst_delay: sta.worst_delay(),
            critical_path,
            dynamics,
            temperatures: run.temperatures,
            total_moves: run.total_moves,
            runtime: start.elapsed(),
            stop_reason: run.stop_reason,
            repairs: run.repairs,
            placement,
            routing,
        };
        if obs.enabled() {
            obs.emit(Event::Stop {
                reason: result.stop_reason.to_string(),
                temps: result.temperatures,
                repairs: result.repairs,
            });
            let metrics = obs
                .with_session(|s| s.metrics.to_json())
                .unwrap_or(Json::Null);
            obs.emit(Event::RunEnd {
                cost: final_cost,
                worst_delay: result.worst_delay,
                unrouted: result.incomplete,
                total_moves: result.total_moves,
                temperatures: result.temperatures,
                runtime_sec: result.runtime.as_secs_f64(),
                metrics,
            });
            obs.flush();
        }
        Ok(result)
    }

    /// The anneal phase with one replica, on the calling thread, one
    /// temperature at a time: the resilience layer (resume, stop checks,
    /// audits, best-so-far tracking, checkpoints) acts at every boundary.
    fn anneal_one<'a>(
        &self,
        arch: &'a Architecture,
        netlist: &'a Netlist,
        obs: &Obs,
        stop: &StopFlag,
        start: Instant,
        anneal_cfg: &AnnealConfig,
    ) -> Result<Annealed<'a>, LayoutError> {
        let res = &self.config.resilience;

        // Resume source is loaded and validated before any state is built:
        // a stale or foreign checkpoint must fail fast.
        let resumed: Option<Checkpoint> = match &res.resume_path {
            Some(path) => {
                // The base path holds the newest snapshot; when it is
                // missing or torn (crashed mid-promotion, disk fault),
                // fall back to the newest retention generation that still
                // decodes before giving up.
                let ck = match Checkpoint::load(path) {
                    Ok(ck) => ck,
                    Err(primary) => match crate::snapshot::load_newest_generation(path) {
                        Some((ck, source)) => {
                            if obs.enabled() {
                                obs.emit(Event::Warning {
                                    code: "checkpoint.fallback".into(),
                                    detail: format!(
                                        "{primary}; resumed from generation {}",
                                        source.display()
                                    ),
                                });
                            }
                            ck
                        }
                        None => return Err(LayoutError::Checkpoint(primary)),
                    },
                };
                ck.validate(arch, netlist, self.config.placement_seed, anneal_cfg.seed)
                    .map_err(LayoutError::Checkpoint)?;
                Some(ck)
            }
            None => None,
        };

        // Fingerprints are stable over the run; hash once.
        let fingerprints = res
            .checkpoint_path
            .as_ref()
            .map(|_| (arch_fingerprint(arch), netlist_fingerprint(netlist)));

        let mut problem: LayoutProblem<'a>;
        let mut annealer: Annealer;
        let mut repairs_total: usize;
        let mut best: Option<BestLayout>;
        match &resumed {
            Some(ck) => {
                problem = LayoutProblem::restore(
                    arch,
                    netlist,
                    self.config.router,
                    self.config.cost,
                    self.config.move_weights,
                    &ck.problem,
                )?
                .with_obs(obs.clone());
                annealer = Annealer::resume(anneal_cfg, &ck.cursor);
                repairs_total = ck.repairs;
                best = ck.best.clone();
                obs.span_start("anneal");
            }
            None => {
                problem = LayoutProblem::new(
                    arch,
                    netlist,
                    self.config.router,
                    self.config.cost,
                    self.config.move_weights,
                    self.config.placement_seed,
                )?
                .with_obs(obs.clone());
                obs.span_start("anneal");
                annealer = Annealer::start(&mut problem, anneal_cfg, obs);
                repairs_total = 0;
                best = None;
            }
        }

        let track_best = res.enabled() || stop.armed();
        #[cfg(feature = "fault-inject")]
        let mut faults = res.faults.clone().unwrap_or_default();

        let mut stop_reason = StopReason::Converged;
        loop {
            if annealer.finished() {
                break;
            }
            if let Some(reason) = res.stop_reason(stop, start, annealer.temperatures_completed()) {
                stop_reason = reason;
                break;
            }
            if annealer.step(&mut problem, obs).is_none() {
                break;
            }
            let t = annealer.temperatures_completed();

            #[cfg(feature = "fault-inject")]
            let write_fault = {
                let mut wf: Option<WriteFault> = None;
                for fault in faults.take_at(t) {
                    match fault.write_fault() {
                        Some(w) => wf = Some(w),
                        None => {
                            problem.inject_fault(&fault);
                        }
                    }
                }
                wf
            };
            #[cfg(not(feature = "fault-inject"))]
            let write_fault: Option<WriteFault> = None;

            if res.audit_every > 0 && t.is_multiple_of(res.audit_every) {
                match obs.span("audit", || problem.audit()) {
                    Ok(()) => {
                        obs.inc("audit.passed");
                        if obs.enabled() {
                            obs.emit(Event::Audit {
                                temp: t,
                                ok: true,
                                detail: String::new(),
                            });
                        }
                    }
                    Err(detail) => {
                        obs.inc("audit.failed");
                        if obs.enabled() {
                            obs.emit(Event::Audit {
                                temp: t,
                                ok: false,
                                detail: detail.clone(),
                            });
                        }
                        repairs_total += 1;
                        Self::repair(&mut problem, t, &detail, res.max_repairs, obs)?;
                    }
                }
            }

            if track_best {
                let key = (
                    problem.routing().incomplete(),
                    problem.routing().globally_unrouted(),
                    problem.timing().worst(),
                );
                let improved = match &best {
                    None => true,
                    Some(b) => key < b.key(),
                };
                if improved {
                    let snap = problem.snapshot();
                    best = Some(BestLayout {
                        sites: snap.sites,
                        pinmaps: snap.pinmaps,
                        routes: snap.routes,
                        incomplete: key.0,
                        globally_unrouted: key.1,
                        worst_delay: key.2,
                    });
                }
            }

            if let (Some(path), Some(fp)) = (&res.checkpoint_path, fingerprints) {
                if t.is_multiple_of(res.checkpoint_every.max(1)) {
                    self.write_checkpoint(
                        path,
                        t,
                        fp,
                        anneal_cfg.seed,
                        &problem,
                        &annealer,
                        repairs_total,
                        &best,
                        write_fault,
                        obs,
                    );
                }
            }
        }
        obs.span_end("anneal");

        // Graceful shutdown: an early stop leaves one final checkpoint at
        // the boundary the run actually reached — unless no temperature
        // completed. The problem snapshot is only restorable at a true
        // temperature boundary (`on_temperature` has just reset the delta
        // statistics and perturbation flags); the post-warmup state is
        // not one, so a temp-0 checkpoint would resume into a run that
        // diverges from a fresh start. With zero progress there is
        // nothing worth resuming anyway: no file means the restart runs
        // fresh, which is bit-identical by definition.
        if stop_reason != StopReason::Converged && annealer.temperatures_completed() > 0 {
            if let (Some(path), Some(fp)) = (&res.checkpoint_path, fingerprints) {
                self.write_checkpoint(
                    path,
                    annealer.temperatures_completed(),
                    fp,
                    anneal_cfg.seed,
                    &problem,
                    &annealer,
                    repairs_total,
                    &best,
                    None,
                    obs,
                );
            }
        }

        Ok(Annealed {
            problem,
            stop_reason,
            best,
            temperatures: annealer.temperatures_completed(),
            total_moves: annealer.total_moves(),
            repairs: repairs_total,
            anneal_seed: anneal_cfg.seed,
        })
    }

    /// The anneal phase with `threads > 1` replicas exchanging their best
    /// layout at temperature boundaries (see [`anneal_parallel_observed`]).
    /// Replica `r` starts from the random placement seeded
    /// [`replica_seed`]`(placement_seed, r)` and anneals with seed
    /// `replica_seed(anneal.seed, r)`. The stop checks run once per
    /// exchange round, so every replica stops at the same boundary and the
    /// winning replica's layout at that boundary is returned.
    ///
    /// `temperatures` and `dynamics` describe the winning replica's walk,
    /// while `total_moves` counts work across all replicas.
    #[allow(clippy::too_many_arguments)]
    fn anneal_replicas<'a>(
        &self,
        arch: &'a Architecture,
        netlist: &'a Netlist,
        obs: &Obs,
        stop: &StopFlag,
        start: Instant,
        anneal_cfg: &AnnealConfig,
        threads: usize,
    ) -> Result<Annealed<'a>, LayoutError> {
        let res = &self.config.resilience;
        let decided = OnceLock::new();
        obs.span_start("anneal");
        let outcome = anneal_parallel_observed(
            |r| {
                LayoutProblem::new(
                    arch,
                    netlist,
                    self.config.router,
                    self.config.cost,
                    self.config.move_weights,
                    replica_seed(self.config.placement_seed, r),
                )
                .expect("replica construction was pre-validated")
            },
            threads,
            anneal_cfg,
            &ParallelConfig::default(),
            obs,
            // Asked once per round until it first says stop, so the first
            // reason is the only one.
            |temps| {
                res.stop_reason(stop, start, temps)
                    .is_some_and(|r| decided.set(r).is_ok())
            },
        );
        obs.span_end("anneal");
        if obs.enabled() {
            obs.observe("parallel.exchanges", outcome.exchanges as f64);
            for r in &outcome.replicas {
                obs.observe("parallel.adoptions", r.adoptions as f64);
            }
        }

        let problem = LayoutProblem::restore(
            arch,
            netlist,
            self.config.router,
            self.config.cost,
            self.config.move_weights,
            &outcome.best,
        )?
        .with_obs(obs.clone());
        Ok(Annealed {
            problem,
            stop_reason: decided.into_inner().unwrap_or(StopReason::Converged),
            best: None,
            temperatures: outcome.replicas[outcome.best_replica].outcome.temperatures,
            total_moves: outcome.replicas.iter().map(|r| r.outcome.total_moves).sum(),
            repairs: 0,
            anneal_seed: replica_seed(anneal_cfg.seed, outcome.best_replica),
        })
    }

    /// Same as [`SimultaneousPlaceRoute::run_observed`], which honours
    /// [`SimPrConfig::threads`] itself; kept for existing callers.
    ///
    /// # Errors
    ///
    /// As [`SimultaneousPlaceRoute::run_with_stop`].
    pub fn run_parallel(
        &self,
        arch: &Architecture,
        netlist: &Netlist,
        label: &str,
        obs: &Obs,
    ) -> Result<LayoutResult, LayoutError> {
        self.run_observed(arch, netlist, label, obs)
    }

    /// Bounded repair after a failed audit: a timing-only divergence gets
    /// a tier-1 timing rebuild first; anything else (or a failed tier-1)
    /// discards and re-derives the routing too. Every attempt is
    /// re-audited before it counts as a success.
    fn repair(
        problem: &mut LayoutProblem<'_>,
        temp: usize,
        detail: &str,
        max_repairs: usize,
        obs: &Obs,
    ) -> Result<(), LayoutError> {
        let timing_only = detail.starts_with("timing");
        let attempts = max_repairs.max(1);
        for attempt in 1..=attempts {
            let scope = if timing_only && attempt == 1 {
                "timing"
            } else {
                "routing"
            };
            let rebuilt = obs.span("repair", || {
                if scope == "timing" {
                    problem.rebuild_timing()
                } else {
                    problem.rebuild_routing()
                }
            });
            let ok = rebuilt.is_ok() && problem.audit().is_ok();
            obs.inc("repair.attempts");
            if obs.enabled() {
                obs.emit(Event::Repair {
                    temp,
                    attempt,
                    scope: scope.into(),
                    ok,
                });
            }
            if ok {
                return Ok(());
            }
        }
        Err(LayoutError::Audit {
            detail: format!(
                "audit still failing after {attempts} repair attempts at temperature {temp}: {detail}"
            ),
        })
    }

    /// Assembles and atomically writes one checkpoint, reporting the
    /// outcome to the journal. Write failures are non-fatal: the run keeps
    /// going and the previous complete snapshot stays in place.
    #[allow(clippy::too_many_arguments)]
    fn write_checkpoint(
        &self,
        path: &Path,
        temp: usize,
        fingerprints: (u64, u64),
        anneal_seed: u64,
        problem: &LayoutProblem<'_>,
        annealer: &Annealer,
        repairs: usize,
        best: &Option<BestLayout>,
        fault: Option<WriteFault>,
        obs: &Obs,
    ) {
        let ck = Checkpoint {
            version: CHECKPOINT_VERSION,
            arch_fingerprint: fingerprints.0,
            netlist_fingerprint: fingerprints.1,
            placement_seed: self.config.placement_seed,
            anneal_seed,
            repairs,
            cursor: annealer.cursor(),
            problem: problem.snapshot(),
            best: best.clone(),
        };
        let keep = self.config.resilience.checkpoint_keep;
        let written = obs.span("checkpoint", || {
            if keep == 0 {
                ck.save(path, fault)
            } else {
                ck.save_generation(path, temp, keep, fault)
            }
        });
        let (ok, detail) = match written {
            Ok(()) => {
                obs.inc("checkpoint.written");
                (true, String::new())
            }
            Err(e) => {
                obs.inc("checkpoint.failed");
                (false, e.to_string())
            }
        };
        if obs.enabled() {
            obs.emit(Event::Checkpoint {
                temp,
                path: path.display().to_string(),
                ok,
                detail,
            });
        }
    }

    /// Key/value capture of the run configuration for the journal header.
    fn config_capture(&self, netlist: &Netlist) -> Vec<(String, Json)> {
        let c = &self.config;
        vec![
            ("cells".into(), netlist.num_cells().into()),
            ("nets".into(), netlist.num_nets().into()),
            ("placement_seed".into(), c.placement_seed.into()),
            ("anneal_seed".into(), c.anneal.seed.into()),
            ("moves_per_temp".into(), c.anneal.moves_per_temp.into()),
            ("warmup_moves".into(), c.anneal.warmup_moves.into()),
            ("max_temps".into(), c.anneal.max_temps.into()),
            ("lambda".into(), c.anneal.lambda.into()),
            ("global_emphasis".into(), c.cost.global_emphasis.into()),
            ("detail_emphasis".into(), c.cost.detail_emphasis.into()),
            ("timing_emphasis".into(), c.cost.timing_emphasis.into()),
            ("wastage_weight".into(), c.router.wastage_weight.into()),
            ("segment_weight".into(), c.router.segment_weight.into()),
            ("final_repair_passes".into(), c.final_repair_passes.into()),
            ("cleanup_moves".into(), c.cleanup_moves.into()),
            ("threads".into(), c.threads.into()),
            ("audit_every".into(), c.resilience.audit_every.into()),
            (
                "checkpoint_every".into(),
                c.resilience.checkpoint_every.into(),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_route::{route_batch, verify_routing};

    fn fixture() -> (Architecture, Netlist) {
        let nl = generate(&GenerateConfig {
            num_cells: 40,
            num_inputs: 5,
            num_outputs: 5,
            num_seq: 3,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(5)
            .cols(12)
            .io_columns(2)
            .tracks_per_channel(16)
            .build()
            .unwrap();
        (arch, nl)
    }

    fn temp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(name)
    }

    /// Removes a checkpoint together with its retention generations.
    fn remove_checkpoint_family(base: &Path) {
        let _ = std::fs::remove_file(base);
        for (_, path) in crate::list_generations(base) {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn fast_run_routes_a_small_design_fully() {
        let (arch, nl) = fixture();
        let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run(&arch, &nl)
            .unwrap();
        assert!(result.fully_routed, "left {} incomplete", result.incomplete);
        assert_eq!(result.incomplete, 0);
        assert!(result.worst_delay > 0.0);
        assert!(!result.critical_path.elements.is_empty());
        assert!(!result.dynamics.is_empty());
        assert!(result.temperatures > 0);
        assert_eq!(result.stop_reason, StopReason::Converged);
        assert_eq!(result.repairs, 0);
        verify_routing(&result.routing, &arch, &nl, &result.placement).unwrap();
    }

    #[test]
    fn runs_are_deterministic_in_seed() {
        let (arch, nl) = fixture();
        let run = |seed: u64| {
            SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(seed))
                .run(&arch, &nl)
                .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.worst_delay, b.worst_delay);
        assert_eq!(a.total_moves, b.total_moves);
        for (id, _) in nl.cells() {
            assert_eq!(a.placement.site_of(id), b.placement.site_of(id));
        }
    }

    #[test]
    fn parallel_with_one_thread_matches_the_sequential_flow() {
        let (arch, nl) = fixture();
        let cfg = SimPrConfig::fast().with_seed(5);
        let tool = SimultaneousPlaceRoute::new(cfg);
        let seq = tool.run(&arch, &nl).unwrap();
        let par = tool
            .run_parallel(&arch, &nl, "design", &Obs::disabled())
            .unwrap();
        assert_eq!(seq.worst_delay, par.worst_delay);
        assert_eq!(seq.total_moves, par.total_moves);
        assert_eq!(seq.incomplete, par.incomplete);
        for (id, _) in nl.cells() {
            assert_eq!(seq.placement.site_of(id), par.placement.site_of(id));
        }
    }

    #[test]
    fn parallel_runs_are_deterministic_and_legal() {
        let (arch, nl) = fixture();
        let mut cfg = SimPrConfig::fast().with_seed(5);
        cfg.threads = 2;
        let tool = SimultaneousPlaceRoute::new(cfg);
        let run = || {
            tool.run_parallel(&arch, &nl, "design", &Obs::disabled())
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.worst_delay, b.worst_delay);
        assert_eq!(a.total_moves, b.total_moves);
        assert_eq!(a.incomplete, b.incomplete);
        for (id, _) in nl.cells() {
            assert_eq!(a.placement.site_of(id), b.placement.site_of(id));
        }
        verify_routing(&a.routing, &arch, &nl, &a.placement).unwrap();
        let sta = Sta::analyze(&arch, &nl, &a.placement, &a.routing).unwrap();
        assert_eq!(sta.worst_delay(), a.worst_delay);
    }

    #[test]
    fn parallel_temp_budget_stops_every_replica_at_the_first_exchange() {
        let (arch, nl) = fixture();
        let mut cfg = SimPrConfig::fast().with_seed(5);
        cfg.threads = 2;
        cfg.resilience.temp_budget = Some(4);
        let tool = SimultaneousPlaceRoute::new(cfg);
        let run = || {
            tool.run_parallel(&arch, &nl, "design", &Obs::disabled())
                .unwrap()
        };
        let a = run();
        assert_eq!(a.stop_reason, StopReason::Deadline);
        assert_eq!(a.temperatures, ParallelConfig::default().exchange_every);
        let b = run();
        assert_eq!(a.worst_delay.to_bits(), b.worst_delay.to_bits());
        assert_eq!(a.total_moves, b.total_moves);
        assert_eq!(a.routing.occupancy_digest(), b.routing.occupancy_digest());
        verify_routing(&a.routing, &arch, &nl, &a.placement).unwrap();
        let sta = Sta::analyze(&arch, &nl, &a.placement, &a.routing).unwrap();
        assert_eq!(sta.worst_delay(), a.worst_delay);
    }

    #[test]
    fn parallel_run_honours_a_stop_flag() {
        let (arch, nl) = fixture();
        let mut cfg = SimPrConfig::fast();
        cfg.threads = 2;
        let stop = StopFlag::manual();
        stop.request_stop();
        let result = SimultaneousPlaceRoute::new(cfg)
            .run_with_stop(&arch, &nl, "fixture", &Obs::disabled(), &stop)
            .unwrap();
        assert_eq!(result.stop_reason, StopReason::Interrupted);
        // The stop is read at the first exchange round, which completes.
        assert_eq!(
            result.temperatures,
            ParallelConfig::default().exchange_every
        );
        verify_routing(&result.routing, &arch, &nl, &result.placement).unwrap();
    }

    #[test]
    fn parallel_run_rejects_checkpoints_resume_and_audits() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_parallel_rejects.json");
        remove_checkpoint_family(&ckpt);
        let path = || Some(ckpt.clone());
        let cases = [
            (
                "checkpoint_path",
                ResilienceConfig {
                    checkpoint_path: path(),
                    ..ResilienceConfig::default()
                },
            ),
            (
                "resume_path",
                ResilienceConfig {
                    resume_path: path(),
                    ..ResilienceConfig::default()
                },
            ),
            (
                "audit_every",
                ResilienceConfig {
                    audit_every: 1,
                    ..ResilienceConfig::default()
                },
            ),
        ];
        for (setting, resilience) in cases {
            let cfg = SimPrConfig {
                threads: 2,
                resilience,
                ..SimPrConfig::fast()
            };
            let err = SimultaneousPlaceRoute::new(cfg)
                .run(&arch, &nl)
                .unwrap_err();
            assert_eq!(err, LayoutError::Unsupported { setting });
            assert!(!ckpt.exists(), "{setting}: no checkpoint may be written");
            assert!(crate::snapshot::list_generations(&ckpt).is_empty());
        }
    }

    #[test]
    fn annealing_beats_the_initial_random_layout_on_delay() {
        let (arch, nl) = fixture();
        // initial: random placement + batch route
        let placement = Placement::random(&arch, &nl, 1).unwrap();
        let mut routing = RoutingState::new(&arch, &nl);
        route_batch(
            &mut routing,
            &arch,
            &nl,
            &placement,
            &RouterConfig::default(),
            6,
        );
        let initial = Sta::analyze(&arch, &nl, &placement, &routing).unwrap();

        let result = SimultaneousPlaceRoute::new(SimPrConfig::default())
            .run(&arch, &nl)
            .unwrap();
        assert!(
            result.worst_delay < initial.worst_delay(),
            "annealed {} not better than random {}",
            result.worst_delay,
            initial.worst_delay()
        );
    }

    #[test]
    fn observed_run_writes_a_parseable_journal() {
        use rowfpga_obs::{json, Event, Obs, RunJournal};

        let (arch, nl) = fixture();
        let path = temp_file("rowfpga_engine_journal_test.jsonl");
        let file = std::fs::File::create(&path).unwrap();
        let obs = Obs::with_sink(Box::new(RunJournal::new(std::io::BufWriter::new(file))));
        let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run_observed(&arch, &nl, "fixture", &obs)
            .unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let docs = json::parse_lines(&text).unwrap();
        let events: Vec<Event> = docs.iter().filter_map(Event::from_json).collect();
        assert_eq!(
            events.len(),
            docs.len(),
            "every line must parse to an event"
        );

        assert!(
            matches!(&events[0], Event::JournalHeader { schema, .. }
                if *schema == rowfpga_obs::SCHEMA_VERSION),
            "first line must be the schema header"
        );
        assert!(
            matches!(&events[1], Event::RunStart { benchmark, .. } if benchmark == "fixture"),
            "run_start must follow the header"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "anneal")),
            "phase spans are journaled"
        );
        let temps = events
            .iter()
            .filter(|e| matches!(e, Event::Temperature(_)))
            .count();
        assert_eq!(temps, result.temperatures);
        let dynamics = events
            .iter()
            .filter(|e| matches!(e, Event::Dynamics(_)))
            .count();
        assert_eq!(dynamics, result.dynamics.len());
        assert!(
            matches!(
                &events[events.len() - 2],
                Event::Stop { reason, .. } if reason == "converged"
            ),
            "second-to-last event must be the stop record"
        );
        match events.last().unwrap() {
            Event::RunEnd {
                total_moves,
                temperatures,
                metrics,
                ..
            } => {
                assert_eq!(*total_moves, result.total_moves);
                assert_eq!(*temperatures, result.temperatures);
                assert!(metrics.get("counters").is_some(), "metrics snapshot");
            }
            other => panic!("last event must be run_end, got {other:?}"),
        }

        // The metrics report renders with all three sections populated.
        let report = obs.render_report().unwrap();
        assert!(report.contains("phase breakdown"), "{report}");
        assert!(report.contains("anneal"), "{report}");
        assert!(report.contains("move.proposed.exchange"), "{report}");
        assert!(report.contains("sta.frontier_cells"), "{report}");
    }

    #[test]
    fn observation_does_not_change_the_layout() {
        use rowfpga_obs::Obs;

        let (arch, nl) = fixture();
        let driver = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(9));
        let plain = driver.run(&arch, &nl).unwrap();
        let observed = driver
            .run_observed(&arch, &nl, "fixture", &Obs::metrics_only())
            .unwrap();
        assert_eq!(plain.worst_delay, observed.worst_delay);
        assert_eq!(plain.total_moves, observed.total_moves);
        assert_eq!(plain.incomplete, observed.incomplete);
        for (id, _) in nl.cells() {
            assert_eq!(plain.placement.site_of(id), observed.placement.site_of(id));
        }
    }

    #[test]
    fn reports_failures_on_a_starved_fabric() {
        let (arch, nl) = fixture();
        let narrow = arch.with_tracks(1).unwrap();
        let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run(&narrow, &nl)
            .unwrap();
        assert!(!result.fully_routed);
        assert!(result.incomplete > 0);
    }

    #[test]
    fn audits_on_a_clean_run_pass_and_change_nothing() {
        let (arch, nl) = fixture();
        let plain = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(3))
            .run(&arch, &nl)
            .unwrap();
        let mut cfg = SimPrConfig::fast().with_seed(3);
        cfg.resilience.audit_every = 2;
        let audited = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        assert_eq!(audited.stop_reason, StopReason::Converged);
        assert_eq!(audited.repairs, 0);
        // The audit is read-only: the trajectory is bit-identical.
        assert_eq!(audited.worst_delay, plain.worst_delay);
        assert_eq!(audited.total_moves, plain.total_moves);
        for (id, _) in nl.cells() {
            assert_eq!(audited.placement.site_of(id), plain.placement.site_of(id));
        }
    }

    #[test]
    fn zero_deadline_stops_immediately_and_leaves_no_temp0_checkpoint() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_zero_deadline.json");
        remove_checkpoint_family(&ckpt);
        let mut cfg = SimPrConfig::fast().with_seed(4);
        cfg.resilience.deadline = Some(Duration::ZERO);
        cfg.resilience.checkpoint_path = Some(ckpt.clone());
        let result = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        assert_eq!(result.stop_reason, StopReason::Deadline);
        assert_eq!(result.temperatures, 0, "no step may start past a deadline");
        // The post-warmup state is not a restorable temperature boundary
        // (delta statistics and perturbation flags are still live), so a
        // zero-progress stop must NOT leave a checkpoint: a restart runs
        // fresh, which is the only bit-identical continuation.
        assert!(
            !ckpt.exists(),
            "a stop before the first temperature must not checkpoint"
        );
        assert!(crate::snapshot::list_generations(&ckpt).is_empty());
        verify_routing(&result.routing, &arch, &nl, &result.placement).unwrap();
    }

    #[test]
    fn stop_flag_interrupts_before_the_first_step() {
        let (arch, nl) = fixture();
        let stop = StopFlag::manual();
        stop.request_stop();
        assert!(stop.is_set() && stop.armed());
        let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run_with_stop(&arch, &nl, "fixture", &Obs::disabled(), &stop)
            .unwrap();
        assert_eq!(result.stop_reason, StopReason::Interrupted);
        assert_eq!(result.temperatures, 0);
    }

    #[test]
    fn checkpoint_then_resume_is_bit_identical_to_an_uninterrupted_run() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_resume_identity.json");
        remove_checkpoint_family(&ckpt);

        let full = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(7))
            .run(&arch, &nl)
            .unwrap();

        // Stop after 5 temperatures, checkpointing every temperature.
        let mut cfg = SimPrConfig::fast().with_seed(7);
        cfg.resilience.temp_budget = Some(5);
        cfg.resilience.checkpoint_path = Some(ckpt.clone());
        cfg.resilience.checkpoint_every = 1;
        let partial = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        assert_eq!(partial.stop_reason, StopReason::Deadline);
        assert_eq!(partial.temperatures, 5);

        // Resume to completion.
        let mut cfg = SimPrConfig::fast().with_seed(7);
        cfg.resilience.resume_path = Some(ckpt.clone());
        let resumed = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        remove_checkpoint_family(&ckpt);

        assert_eq!(resumed.stop_reason, StopReason::Converged);
        assert_eq!(resumed.worst_delay, full.worst_delay);
        assert_eq!(resumed.total_moves, full.total_moves);
        assert_eq!(resumed.temperatures, full.temperatures);
        assert_eq!(resumed.incomplete, full.incomplete);
        assert_eq!(resumed.dynamics.samples(), full.dynamics.samples());
        for (id, _) in nl.cells() {
            assert_eq!(resumed.placement.site_of(id), full.placement.site_of(id));
        }
        verify_routing(&resumed.routing, &arch, &nl, &resumed.placement).unwrap();
    }

    #[test]
    fn resume_rejects_a_checkpoint_for_a_different_design_or_seed() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_resume_mismatch.json");
        remove_checkpoint_family(&ckpt);
        let mut cfg = SimPrConfig::fast().with_seed(2);
        cfg.resilience.temp_budget = Some(2);
        cfg.resilience.checkpoint_path = Some(ckpt.clone());
        cfg.resilience.checkpoint_every = 1;
        SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();

        let resume_cfg = |seed: u64| {
            let mut cfg = SimPrConfig::fast().with_seed(seed);
            cfg.resilience.resume_path = Some(ckpt.clone());
            cfg
        };

        // Wrong architecture.
        let wide = arch.with_tracks(17).unwrap();
        let err = SimultaneousPlaceRoute::new(resume_cfg(2))
            .run(&wide, &nl)
            .unwrap_err();
        assert!(matches!(
            err,
            LayoutError::Checkpoint(CheckpointError::ArchMismatch { .. })
        ));

        // Wrong seed.
        let err = SimultaneousPlaceRoute::new(resume_cfg(3))
            .run(&arch, &nl)
            .unwrap_err();
        assert!(matches!(
            err,
            LayoutError::Checkpoint(CheckpointError::SeedMismatch { .. })
        ));

        // Missing file.
        let mut cfg = SimPrConfig::fast().with_seed(2);
        cfg.resilience.resume_path = Some(temp_file("rowfpga_engine_no_such_ckpt.json"));
        let err = SimultaneousPlaceRoute::new(cfg)
            .run(&arch, &nl)
            .unwrap_err();
        assert!(matches!(
            err,
            LayoutError::Checkpoint(CheckpointError::Io { .. })
        ));
        remove_checkpoint_family(&ckpt);
    }

    #[test]
    fn resume_falls_back_to_a_generation_when_the_base_checkpoint_is_torn() {
        let (arch, nl) = fixture();
        let ckpt = temp_file("rowfpga_engine_gen_fallback.json");
        remove_checkpoint_family(&ckpt);

        let full = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(11))
            .run(&arch, &nl)
            .unwrap();

        let mut cfg = SimPrConfig::fast().with_seed(11);
        cfg.resilience.temp_budget = Some(5);
        cfg.resilience.checkpoint_path = Some(ckpt.clone());
        cfg.resilience.checkpoint_every = 1;
        SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();

        let gens = crate::list_generations(&ckpt);
        assert_eq!(
            gens.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![3, 4, 5],
            "default retention keeps the three newest generations"
        );

        // Tear the base snapshot; the newest generation carries the run.
        std::fs::write(&ckpt, "{\"format\":\"rowfpga-checkpoint\"").unwrap();
        let mut cfg = SimPrConfig::fast().with_seed(11);
        cfg.resilience.resume_path = Some(ckpt.clone());
        let resumed = SimultaneousPlaceRoute::new(cfg).run(&arch, &nl).unwrap();
        remove_checkpoint_family(&ckpt);

        assert_eq!(resumed.stop_reason, StopReason::Converged);
        assert_eq!(resumed.worst_delay, full.worst_delay);
        assert_eq!(resumed.total_moves, full.total_moves);
        assert_eq!(resumed.temperatures, full.temperatures);
        for (id, _) in nl.cells() {
            assert_eq!(resumed.placement.site_of(id), full.placement.site_of(id));
        }
        verify_routing(&resumed.routing, &arch, &nl, &resumed.placement).unwrap();
    }
}
