//! The traced run: a per-crate ledger by annealing regime.
//!
//! Every span here is timed from the benchmark's side of a public call into
//! one crate; nothing inside the program is instrumented. Three drivers
//! produce the ledger:
//!
//! * [`Traced`] wraps a `LayoutProblem` and times its `propose_and_apply`
//!   (the whole cascade), `commit` and `undo`, driven by `Annealer::start`
//!   and `step` exactly as `run_with_stop` drives it (K = 1) or by
//!   `anneal_parallel` exactly as `run_parallel` does (K = 2). Each move is
//!   tagged with the regime of its temperature's acceptance ratio.
//! * Stage replay rebuilds the layer objects from a snapshot taken at a
//!   temperature boundary of each regime and replays moves through the
//!   cascade's stages one call at a time, in `run_cascade`'s order, with a
//!   Metropolis decision at that temperature. The same moves and decisions
//!   are then replayed through `LayoutProblem::restore` + `apply_move`,
//!   which must give the same cost deltas, routing digest and worst delay.
//! * The sequential baseline is re-run stage by stage (placer anneal,
//!   batch route, STA) and must reproduce `SequentialPlaceRoute::run`.
//!
//! The traced layouts must also reproduce the untraced layouts of the same
//! run: temperatures, moves, worst delay and routing digest.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rowfpga_anneal::{
    anneal, anneal_parallel, replica_seed, AnnealConfig, AnnealCursor, AnnealProblem, Annealer,
    ParallelConfig, ReplicaProblem, TemperatureStats,
};
use rowfpga_baseline::PlacerProblem;
use rowfpga_core::{
    arch_fingerprint, netlist_fingerprint, Checkpoint, LayoutProblem, ProblemSnapshot, SimPrConfig,
    CHECKPOINT_VERSION,
};
use rowfpga_obs::Obs;
use rowfpga_place::{Move, MoveGenerator, Placement};
use rowfpga_route::{detail_route_pass, global_route_pass, route_batch, RoutingState};
use rowfpga_timing::{Sta, TimingState};

use crate::stats::{mean, median, quantile};
use crate::workload::{
    build_design, check, resume_chain, run_sim, seq_config, sim_config, verify_layout, Checked,
    Design, ScratchDir, Workload,
};
use crate::{Metric, Tally};

/// Acceptance ratio at or above which a temperature is `hot`: the
/// range-limit threshold of `LayoutProblem::on_temperature`.
const HOT_ACCEPTANCE: f64 = 0.44;
/// Acceptance ratio below which a temperature is `cold` (the ROADMAP's cut
/// between the regimes where the engine spends its moves).
const COLD_ACCEPTANCE: f64 = 0.15;
/// Moves replayed stage by stage in each regime of each design.
const REPLAY_MOVES: usize = 1500;
/// Repetitions of each design's timed set-up steps.
const LEDGER_SETUP_REPS: usize = 5;

/// Annealing regime of a temperature, by its acceptance ratio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Regime {
    Hot,
    Mid,
    Cold,
}

impl Regime {
    const ALL: [Regime; 3] = [Regime::Hot, Regime::Mid, Regime::Cold];

    fn of(acceptance: f64) -> Regime {
        if acceptance >= HOT_ACCEPTANCE {
            Regime::Hot
        } else if acceptance < COLD_ACCEPTANCE {
            Regime::Cold
        } else {
            Regime::Mid
        }
    }

    fn name(self) -> &'static str {
        match self {
            Regime::Hot => "hot",
            Regime::Mid => "mid",
            Regime::Cold => "cold",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Times `f`, returning its result and the elapsed time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Per-call samples keyed by metric name.
#[derive(Debug, Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &str, v: f64) {
        self.0.entry(name.to_owned()).or_default().push(v);
    }

    fn extend(&mut self, name: &str, v: impl IntoIterator<Item = f64>) {
        self.0.entry(name.to_owned()).or_default().extend(v);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// What one annealing replica recorded.
#[derive(Debug)]
struct AnnealRecord {
    /// Moves still to come from the warm-up walk (never tagged).
    warmup_left: usize,
    /// Whether the move being committed or undone is a warm-up move.
    in_warmup: bool,
    created: Instant,
    /// Wall clock from the replica's creation to its last warm-up move.
    warmup_ms: Vec<f64>,
    /// This temperature's cascade, commit and undo times, tagged with its
    /// regime once the temperature ends.
    pending: [Vec<f64>; 3],
    cascade: [Vec<f64>; 3],
    commit: [Vec<f64>; 3],
    undo: [Vec<f64>; 3],
    moves: [usize; 3],
    accepted: [usize; 3],
    temps: usize,
    /// Time spent in this replica's own problem calls this round.
    busy: Duration,
    round_start: Instant,
    /// Whether no move has run since the last `on_temperature`.
    /// `anneal_parallel` publishes a replica's cost right after its last
    /// temperature of a round (or, once the replica has finished, right
    /// after the previous round's exchange), which is how a replica's
    /// rounds are told apart from the outside.
    at_boundary: bool,
    /// Per-round wall clock minus busy time (parallel replicas only).
    wait_ms: Vec<f64>,
    adopt_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
}

impl AnnealRecord {
    fn new(warmup_moves: usize) -> AnnealRecord {
        AnnealRecord {
            warmup_left: warmup_moves,
            in_warmup: false,
            created: Instant::now(),
            warmup_ms: Vec::new(),
            pending: Default::default(),
            cascade: Default::default(),
            commit: Default::default(),
            undo: Default::default(),
            moves: [0; 3],
            accepted: [0; 3],
            temps: 0,
            busy: Duration::ZERO,
            round_start: Instant::now(),
            at_boundary: false,
            wait_ms: Vec::new(),
            adopt_ms: Vec::new(),
            snapshot_ms: Vec::new(),
        }
    }
}

/// A `LayoutProblem` with a stopwatch on every call the annealer makes.
/// The record is shared (`Rc<RefCell<_>>`) because `anneal_parallel`'s
/// round boundary shows only as a `cost(&self)` call, and because a
/// parallel replica's record must outlive the replica, which
/// `anneal_parallel` drops inside its thread.
struct Traced<'a, 's> {
    inner: LayoutProblem<'a>,
    rec: Rc<RefCell<AnnealRecord>>,
    /// Set for parallel replicas: hands the record over when dropped.
    deposit: Option<Deposit<'s>>,
}

/// Moves a parallel replica's record into the shared list when the replica
/// is dropped at the end of its thread.
struct Deposit<'s> {
    sink: &'s Mutex<Vec<AnnealRecord>>,
    rec: Rc<RefCell<AnnealRecord>>,
}

impl Drop for Deposit<'_> {
    fn drop(&mut self) {
        let rec = self.rec.replace(AnnealRecord::new(0));
        if let Ok(mut records) = self.sink.lock() {
            records.push(rec);
        }
    }
}

impl<'a, 's> Traced<'a, 's> {
    fn new(
        inner: LayoutProblem<'a>,
        warmup_moves: usize,
        sink: Option<&'s Mutex<Vec<AnnealRecord>>>,
    ) -> Self {
        let rec = Rc::new(RefCell::new(AnnealRecord::new(warmup_moves)));
        Traced {
            inner,
            deposit: sink.map(|sink| Deposit {
                sink,
                rec: Rc::clone(&rec),
            }),
            rec,
        }
    }
}

impl AnnealProblem for Traced<'_, '_> {
    type Applied = <LayoutProblem<'static> as AnnealProblem>::Applied;

    fn propose_and_apply(&mut self, rng: &mut StdRng) -> (Self::Applied, f64) {
        let (out, t) = timed(|| self.inner.propose_and_apply(rng));
        let mut rec = self.rec.borrow_mut();
        rec.busy += t;
        rec.at_boundary = false;
        rec.in_warmup = rec.warmup_left > 0;
        if rec.in_warmup {
            rec.warmup_left -= 1;
        } else {
            rec.pending[0].push(ns(t));
        }
        out
    }

    fn undo(&mut self, applied: Self::Applied) {
        let ((), t) = timed(|| self.inner.undo(applied));
        let mut rec = self.rec.borrow_mut();
        rec.busy += t;
        rec.pending[2].push(ns(t));
    }

    fn commit(&mut self, applied: Self::Applied) {
        let ((), t) = timed(|| self.inner.commit(applied));
        let mut rec = self.rec.borrow_mut();
        rec.busy += t;
        if !rec.in_warmup {
            rec.pending[1].push(ns(t));
        } else if rec.warmup_left == 0 {
            // The warm-up walk commits every move; this was its last.
            rec.in_warmup = false;
            let warmup = rec.created.elapsed();
            rec.warmup_ms.push(ms(warmup));
        }
    }

    fn cost(&self) -> f64 {
        if self.deposit.is_some() {
            let mut rec = self.rec.borrow_mut();
            if rec.at_boundary {
                // A publish: close the round.
                let wall = rec.round_start.elapsed();
                let wait = ms(wall.saturating_sub(rec.busy));
                rec.wait_ms.push(wait);
                rec.busy = Duration::ZERO;
                rec.round_start = Instant::now();
            }
        }
        self.inner.cost()
    }

    fn on_temperature(&mut self, stats: &TemperatureStats) {
        let ((), t) = timed(|| self.inner.on_temperature(stats));
        let mut rec = self.rec.borrow_mut();
        rec.busy += t;
        let r = Regime::of(stats.acceptance_ratio()).index();
        let [cascade, commit, undo] = std::mem::take(&mut rec.pending);
        rec.cascade[r].extend(cascade);
        rec.commit[r].extend(commit);
        rec.undo[r].extend(undo);
        rec.moves[r] += stats.moves;
        rec.accepted[r] += stats.accepted;
        rec.temps += 1;
        rec.at_boundary = true;
    }
}

impl ReplicaProblem for Traced<'_, '_> {
    type Snapshot = ProblemSnapshot;

    fn snapshot(&self) -> ProblemSnapshot {
        let (snap, t) = timed(|| self.inner.snapshot());
        let mut rec = self.rec.borrow_mut();
        rec.busy += t;
        rec.snapshot_ms.push(ms(t));
        snap
    }

    fn adopt(&mut self, snapshot: &ProblemSnapshot) {
        let ((), t) = timed(|| self.inner.adopt(snapshot));
        let mut rec = self.rec.borrow_mut();
        rec.busy += t;
        rec.adopt_ms.push(ms(t));
    }
}

/// A snapshot of the anneal at a temperature boundary.
struct Boundary {
    regime: Regime,
    temperature: f64,
    snap: ProblemSnapshot,
    cursor: AnnealCursor,
}

/// A finished traced layout.
struct TracedLayout {
    checked: Option<Checked>,
    /// Wall clock of the whole layout call (what `sim_wall_s` times).
    wall: Duration,
    /// Wall clock of the annealing phase alone.
    anneal_wall: Duration,
    moves: usize,
    boundaries: Vec<Boundary>,
}

fn anneal_config(cfg: &SimPrConfig, design: &Design) -> AnnealConfig {
    let mut a = cfg.anneal.clone();
    if a.moves_per_temp == 0 {
        a.moves_per_temp = AnnealConfig::moves_for_cells(design.netlist.num_cells(), 1.0);
    }
    a
}

/// The engine's tail after annealing: zero-temperature cleanup when nets
/// are left unrouted, the final repair pass, then the checked result.
fn finish(
    design: &Design,
    cfg: &SimPrConfig,
    mut problem: LayoutProblem<'_>,
    cleanup_seed: u64,
    temperatures: usize,
    total_moves: usize,
    tally: &mut Tally,
) -> Option<Checked> {
    if problem.routing().incomplete() > 0 && cfg.cleanup_moves > 0 {
        let mut rng = StdRng::seed_from_u64(cleanup_seed.wrapping_add(0x51ea9));
        for _ in 0..cfg.cleanup_moves {
            let (applied, delta) = problem.propose_and_apply(&mut rng);
            if delta <= 0.0 {
                problem.commit(applied);
            } else {
                problem.undo(applied);
            }
            if problem.routing().incomplete() == 0 {
                break;
            }
        }
    }
    let (placement, mut routing, _) = problem.into_parts();
    if !routing.is_fully_routed() && cfg.final_repair_passes > 0 {
        route_batch(
            &mut routing,
            &design.arch,
            &design.netlist,
            &placement,
            &cfg.router,
            cfg.final_repair_passes,
        );
    }
    let worst = verify_layout("traced", design, &placement, &routing, tally)?;
    routing.is_fully_routed().then_some(Checked {
        worst_delay: worst,
        digest: routing.occupancy_digest(),
        temperatures,
        total_moves,
    })
}

/// K = 1: `Annealer::start` + `step`, as `run_with_stop` drives it, with a
/// snapshot at every temperature boundary for the stage replay.
fn traced_k1(
    design: &Design,
    cfg: &SimPrConfig,
    records: &mut Vec<AnnealRecord>,
    tally: &mut Tally,
) -> Result<TracedLayout, String> {
    let start = Instant::now();
    let anneal_cfg = anneal_config(cfg, design);
    let obs = Obs::disabled();
    let problem = LayoutProblem::new(
        &design.arch,
        &design.netlist,
        cfg.router,
        cfg.cost,
        cfg.move_weights,
        cfg.placement_seed,
    )
    .map_err(|e| format!("{}: {e}", design.name))?;
    let mut traced = Traced::new(problem, anneal_cfg.warmup_moves, None);
    let anneal_start = Instant::now();
    let mut annealer = Annealer::start(&mut traced, &anneal_cfg, &obs);
    let mut boundaries = Vec::new();
    let mut snap_time = Duration::ZERO;
    loop {
        let busy0 = traced.rec.borrow().busy;
        let (stats, step) = timed(|| annealer.step(&mut traced, &obs));
        let Some(stats) = stats else { break };
        // K = 1 has no exchange: a "round" is one temperature, and its
        // wait is the engine's own time between problem calls.
        let wait = ms(step.saturating_sub(traced.rec.borrow().busy - busy0));
        traced.rec.borrow_mut().wait_ms.push(wait);
        let (snap, t) = timed(|| traced.snapshot());
        snap_time += t;
        boundaries.push(Boundary {
            regime: Regime::of(stats.acceptance_ratio()),
            temperature: stats.temperature,
            snap,
            cursor: annealer.cursor(),
        });
    }
    // Boundary snapshots feed the replay only; they are not part of the
    // layout the untraced run times.
    let anneal_wall = anneal_start.elapsed() - snap_time;
    let moves = annealer.total_moves();
    records.push(traced.rec.replace(AnnealRecord::new(0)));
    let checked = finish(
        design,
        cfg,
        traced.inner,
        anneal_cfg.seed,
        annealer.temperatures_completed(),
        moves,
        tally,
    );
    Ok(TracedLayout {
        checked,
        wall: start.elapsed() - snap_time,
        anneal_wall,
        moves,
        boundaries,
    })
}

/// K > 1: `anneal_parallel` over traced replicas, then the tail
/// `run_parallel` runs on the best replica.
fn traced_parallel(
    design: &Design,
    cfg: &SimPrConfig,
    records: &mut Vec<AnnealRecord>,
    tally: &mut Tally,
) -> Result<TracedLayout, String> {
    let start = Instant::now();
    let anneal_cfg = anneal_config(cfg, design);
    // The factory runs inside the replica threads; these are the checks
    // `run_parallel` makes first so that it cannot fail there.
    Placement::random(&design.arch, &design.netlist, cfg.placement_seed)
        .map_err(|e| format!("{}: {e}", design.name))?;
    LayoutProblem::check_levelizable(&design.netlist)
        .map_err(|e| format!("{}: {e}", design.name))?;
    let sink = Mutex::new(Vec::new());
    let anneal_start = Instant::now();
    let outcome = anneal_parallel(
        |r| {
            let problem = LayoutProblem::new(
                &design.arch,
                &design.netlist,
                cfg.router,
                cfg.cost,
                cfg.move_weights,
                replica_seed(cfg.placement_seed, r),
            )
            .expect("replica construction was pre-validated");
            Traced::new(problem, anneal_cfg.warmup_moves, Some(&sink))
        },
        cfg.threads,
        &anneal_cfg,
        &ParallelConfig::default(),
    );
    let anneal_wall = anneal_start.elapsed();
    records.extend(sink.into_inner().map_err(|_| "a replica panicked")?);
    let problem = LayoutProblem::restore(
        &design.arch,
        &design.netlist,
        cfg.router,
        cfg.cost,
        cfg.move_weights,
        &outcome.best,
    )
    .map_err(|e| format!("{}: {e}", design.name))?;
    let moves = outcome.replicas.iter().map(|r| r.outcome.total_moves).sum();
    let checked = finish(
        design,
        cfg,
        problem,
        replica_seed(anneal_cfg.seed, outcome.best_replica),
        outcome.replicas[outcome.best_replica].outcome.temperatures,
        moves,
        tally,
    );
    Ok(TracedLayout {
        checked,
        wall: start.elapsed(),
        anneal_wall,
        moves,
        boundaries: Vec::new(),
    })
}

/// Per-move stage-replay samples, one column each, suffixed with the
/// regime when recorded.
const STAGE_METRICS: [&str; 13] = [
    "place.move_ns",
    "route.ripup_ns",
    "route.nets_ripped",
    "route.global_ns",
    "route.global_nets",
    "route.detail_ns",
    "route.detail_routed",
    "route.detail_failures",
    "route.txn_ns",
    "timing.update_ns",
    "timing.frontier",
    "timing.changed_nets",
    "timing.txn_ns",
];

/// Replays [`REPLAY_MOVES`] moves from boundary `b` one stage call at a
/// time, in `run_cascade`'s order, with a Metropolis decision at the
/// boundary's temperature; then replays the same moves and decisions
/// through `LayoutProblem::restore` + `apply_move` + `commit`/`undo`, which
/// must give the same cost deltas, routing digest and worst delay.
fn stage_replay(
    design: &Design,
    cfg: &SimPrConfig,
    b: &Boundary,
    rng_seed: u64,
    samples: &mut Samples,
    time_adopt: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let (arch, nl) = (&design.arch, &design.netlist);
    let r = b.regime.name();
    let err =
        |what: &str, e: &dyn std::fmt::Display| format!("{} replay: {what}: {e}", design.name);
    let mut placement = Placement::from_parts(arch, nl, &b.snap.sites, &b.snap.pinmaps)
        .map_err(|e| err("placement", &e))?;
    let mut routing =
        RoutingState::restore(arch, nl, &b.snap.routes).map_err(|e| err("routing", &e))?;
    let (timing, t) = timed(|| TimingState::new(arch, nl, &placement, &routing));
    let mut timing = timing.map_err(|e| err("timing", &e))?;
    samples.push("timing.sta_full_ms", ms(t));
    let mover = MoveGenerator::new(arch, nl, cfg.move_weights);
    let window = (b.snap.window < mover.max_window()).then_some(b.snap.window);
    let weights = b.snap.weights;
    let mut rng = StdRng::seed_from_u64(rng_seed);

    let n = REPLAY_MOVES;
    let mut script: Vec<(Move, bool, f64)> = Vec::with_capacity(n);
    let mut cols: [Vec<f64>; STAGE_METRICS.len()] = Default::default();
    let mut stage_sum = 0.0;
    for _ in 0..n {
        let (g0, d0, t0) = (
            routing.globally_unrouted(),
            routing.incomplete(),
            timing.worst(),
        );
        let (mv, t_propose) = timed(|| mover.propose_in_window(nl, &placement, &mut rng, window));
        let ((), t_rbegin) = timed(|| routing.begin_txn());
        let ((), t_tbegin) = timed(|| timing.begin_txn());
        let ((), t_apply) = timed(|| mv.apply(arch, nl, &mut placement));
        let ((), t_rip) = timed(|| {
            for cell in mv.affected_cells(&placement) {
                routing.rip_up_cell(nl, cell);
            }
        });
        let ripped = routing.globally_unrouted().saturating_sub(g0);
        let (gnets, t_global) =
            timed(|| global_route_pass(&mut routing, arch, nl, &placement, &cfg.router));
        let (detail, t_detail) = timed(|| detail_route_pass(&mut routing, arch, &cfg.router));
        let changed = routing.touched_nets().len();
        let (_, t_update) =
            timed(|| timing.update_nets(arch, nl, &placement, &routing, routing.touched_nets()));
        let (g1, d1, t1) = (
            routing.globally_unrouted(),
            routing.incomplete(),
            timing.worst(),
        );
        let delta = weights.cost(g1, d1, t1) - weights.cost(g0, d0, t0);
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / b.temperature).exp();
        let (t_rend, t_tend, t_undo) = if accept {
            let ((), a) = timed(|| routing.commit());
            let ((), b) = timed(|| timing.commit());
            (a, b, Duration::ZERO)
        } else {
            let ((), a) = timed(|| routing.rollback());
            let ((), b) = timed(|| timing.rollback());
            let ((), c) = timed(|| mv.undo(arch, nl, &mut placement));
            (a, b, c)
        };
        stage_sum +=
            ns(t_propose + t_rbegin + t_tbegin + t_apply + t_rip + t_global + t_detail + t_update);
        let row = [
            ns(t_propose + t_apply + t_undo),
            ns(t_rip),
            ripped as f64,
            ns(t_global),
            gnets as f64,
            ns(t_detail),
            detail.routed as f64,
            detail.failures as f64,
            ns(t_rbegin + t_rend),
            ns(t_update),
            timing.last_frontier() as f64,
            changed as f64,
            ns(t_tbegin + t_tend),
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
        script.push((mv, accept, delta));
    }
    for (name, col) in STAGE_METRICS.iter().zip(cols) {
        samples.extend(&format!("{name}.{r}"), col);
    }
    samples.push(&format!("replay.stage_ns_sum.{r}"), stage_sum);
    samples.push(&format!("replay.moves.{r}"), n as f64);
    let digest = routing.occupancy_digest();
    let worst = timing.worst();

    // Parity: the same moves and decisions through the engine's own cascade.
    let mut problem =
        LayoutProblem::restore(arch, nl, cfg.router, cfg.cost, cfg.move_weights, &b.snap)
            .map_err(|e| err("restore", &e))?;
    let ((), t) = timed(|| problem.adopt(&b.snap));
    if time_adopt {
        samples.push("core.adopt_ms", ms(t));
    }
    let mut mismatched = 0usize;
    for &(mv, accept, delta) in &script {
        let (applied, d) = problem.apply_move(mv);
        mismatched += usize::from(d.to_bits() != delta.to_bits());
        if accept {
            problem.commit(applied);
        } else {
            problem.undo(applied);
        }
    }
    let (pd, pw) = (
        problem.routing().occupancy_digest(),
        problem.timing().worst(),
    );
    if mismatched > 0 || pd != digest || pw.to_bits() != worst.to_bits() {
        tally.error(format!(
            "{} stage-replay parity ({r}): {mismatched} of {n} cost deltas differ; \
             digest {digest} vs {pd}; worst {worst} vs {pw}",
            design.name
        ));
    }
    Ok(())
}

/// Load, validate, restore and audit the checkpoint at `path`, then save
/// it again to `copy`, timing each step.
fn checkpoint_ops(
    design: &Design,
    cfg: &SimPrConfig,
    path: &Path,
    copy: &Path,
    samples: &mut Samples,
) -> Result<(), String> {
    let (arch, nl) = (&design.arch, &design.netlist);
    let err =
        |what: &str, e: &dyn std::fmt::Display| format!("{} checkpoint {what}: {e}", design.name);
    let (ck, t) = timed(|| Checkpoint::load(path));
    let ck = ck.map_err(|e| err("load", &e))?;
    samples.push("core.ckpt_load_ms", ms(t));
    let (v, t) = timed(|| ck.validate(arch, nl, cfg.placement_seed, cfg.anneal.seed));
    v.map_err(|e| err("validate", &e))?;
    samples.push("core.ckpt_validate_ms", ms(t));
    let (problem, t) = timed(|| {
        LayoutProblem::restore(
            arch,
            nl,
            cfg.router,
            cfg.cost,
            cfg.move_weights,
            &ck.problem,
        )
    });
    let problem = problem.map_err(|e| err("restore", &e))?;
    samples.push("core.restore_ms", ms(t));
    let (a, t) = timed(|| problem.audit());
    a.map_err(|e| err("audit", &e))?;
    samples.push("core.audit_ms", ms(t));
    let (s, t) = timed(|| ck.save(copy, None));
    s.map_err(|e| err("save", &e))?;
    samples.push("core.ckpt_save_ms", ms(t));
    let bytes = std::fs::metadata(copy).map_err(|e| err("stat", &e))?.len();
    samples.push("core.ckpt_bytes", bytes as f64);
    Ok(())
}

/// The checkpoint the engine would write at boundary `b`.
fn checkpoint_at(design: &Design, cfg: &SimPrConfig, b: &Boundary) -> Checkpoint {
    Checkpoint {
        version: CHECKPOINT_VERSION,
        arch_fingerprint: arch_fingerprint(&design.arch),
        netlist_fingerprint: netlist_fingerprint(&design.netlist),
        placement_seed: cfg.placement_seed,
        anneal_seed: cfg.anneal.seed,
        repairs: 0,
        cursor: b.cursor.clone(),
        problem: b.snap.clone(),
        best: None,
    }
}

/// The sequential flow stage by stage (placer anneal, batch route, STA);
/// the result must equal `SequentialPlaceRoute::run`'s.
fn traced_baseline(
    design: &Design,
    seed: u64,
    samples: &mut Samples,
    tally: &mut Tally,
) -> Result<(), String> {
    let (arch, nl) = (&design.arch, &design.netlist);
    let cfg = seq_config(seed);
    let mut anneal_cfg = cfg.anneal.clone();
    if anneal_cfg.moves_per_temp == 0 {
        anneal_cfg.moves_per_temp = AnnealConfig::moves_for_cells(nl.num_cells(), 1.0);
    }
    let (placed, t) = timed(|| {
        PlacerProblem::new(arch, nl, cfg.placer, cfg.move_weights, cfg.placement_seed).map(
            |mut p| {
                let outcome = anneal(&mut p, &anneal_cfg, |_| {});
                (p.into_placement(), outcome)
            },
        )
    });
    let (placement, outcome) =
        placed.map_err(|e| format!("{}: baseline placer: {e}", design.name))?;
    samples.push("baseline.place_ms", ms(t));
    let (routing, t) = timed(|| {
        let mut routing = RoutingState::new(arch, nl);
        route_batch(
            &mut routing,
            arch,
            nl,
            &placement,
            &cfg.router,
            cfg.route_passes,
        );
        routing
    });
    samples.push("baseline.route_ms", ms(t));
    let (sta, t) = timed(|| Sta::analyze(arch, nl, &placement, &routing));
    let worst = sta
        .map_err(|e| format!("{}: baseline STA: {e}", design.name))?
        .worst_delay();
    samples.push("baseline.sta_ms", ms(t));

    let flow = rowfpga_baseline::SequentialPlaceRoute::new(cfg).run(arch, nl);
    let reference = check("seq", design, flow, tally);
    let staged = (
        routing.occupancy_digest(),
        worst.to_bits(),
        outcome.total_moves,
    );
    if reference.map(|c| (c.digest, c.worst_delay.to_bits(), c.total_moves)) != Some(staged) {
        tally.error(format!(
            "{}: stage-by-stage sequential flow differs from SequentialPlaceRoute::run",
            design.name
        ));
    }
    Ok(())
}

/// Times each set-up step per design: `generate`, `size_architecture`,
/// `LayoutProblem::new` and, on its state, a full `TimingState::new`.
fn setup_ledger(
    workload: Workload,
    cfg: &SimPrConfig,
    samples: &mut Samples,
) -> Result<(), String> {
    for _ in 0..LEDGER_SETUP_REPS {
        for spec in workload.designs() {
            let (netlist, t) = timed(|| rowfpga_netlist::generate(&spec.config));
            samples.push("netlist.generate_ms", ms(t));
            let (arch, t) = timed(|| {
                rowfpga_core::size_architecture(&netlist, &rowfpga_core::SizingConfig::default())
            });
            let arch = arch.map_err(|e| format!("{}: sizing: {e}", spec.name))?;
            samples.push("core.size_ms", ms(t));
            let (problem, t) = timed(|| {
                LayoutProblem::new(
                    &arch,
                    &netlist,
                    cfg.router,
                    cfg.cost,
                    cfg.move_weights,
                    cfg.placement_seed,
                )
            });
            let problem = problem.map_err(|e| format!("{}: {e}", spec.name))?;
            samples.push("core.problem_new_ms", ms(t));
            let (timing, t) =
                timed(|| TimingState::new(&arch, &netlist, problem.placement(), problem.routing()));
            timing.map_err(|e| format!("{}: {e}", spec.name))?;
            samples.push("timing.sta_full_ms", ms(t));
        }
    }
    Ok(())
}

/// The middle boundary of each regime, if the anneal reached it.
fn regime_boundaries(boundaries: &[Boundary]) -> Vec<&Boundary> {
    Regime::ALL
        .iter()
        .filter_map(|&r| {
            let of_regime: Vec<&Boundary> = boundaries.iter().filter(|b| b.regime == r).collect();
            of_regime.get(of_regime.len() / 2).copied()
        })
        .collect()
}

/// Builds the reported metric list, printing each per-call metric's
/// median, p90 and sample count beside it.
struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<28} {value:>14.4} {unit}");
        self.metrics.push((name.to_owned(), value, unit));
    }

    fn per_call(&mut self, name: &str, v: &[f64], unit: &'static str) {
        let med = median(v.to_vec());
        println!(
            "{name:<28} {med:>14.4} {unit:<6} p90 {:>14.4}  n {}",
            quantile(v.to_vec(), 0.9),
            v.len()
        );
        self.metrics.push((name.to_owned(), med, unit));
    }

    fn per_move(&mut self, name: &str, v: &[f64], unit: &'static str) {
        let m = mean(v);
        println!(
            "{name:<28} {m:>14.4} {unit:<6} mean per move, n {}",
            v.len()
        );
        self.metrics.push((name.to_owned(), m, unit));
    }
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let cfg = sim_config(workload, seed);
    let k = workload.replicas();
    let mut samples = Samples::default();
    setup_ledger(workload, &cfg, &mut samples)?;
    let designs = workload
        .designs()
        .iter()
        .map(build_design)
        .collect::<Result<Vec<_>, _>>()?;
    let scratch = ScratchDir::new()?;
    let mut records = Vec::new();
    let mut k1_records = Vec::new();
    let (mut untraced_wall, mut traced_wall) = (0.0, 0.0);
    let (mut moves, mut anneal_wall) = (0usize, 0.0);
    let (mut k1_moves, mut k1_wall) = (0usize, 0.0);

    for (i, d) in designs.iter().enumerate() {
        // The untraced layout the trace must reproduce. The resume chain
        // equals one uninterrupted run, which is what the traced driver
        // mirrors, so that is its reference here.
        let (result, t) = timed(|| match workload {
            Workload::ResumeChain => {
                rowfpga_core::SimultaneousPlaceRoute::new(cfg.clone()).run(&d.arch, &d.netlist)
            }
            _ => run_sim(workload, d, &cfg, &scratch),
        });
        untraced_wall += t.as_secs_f64();
        let reference = check("untraced", d, result, tally);

        let traced = if k > 1 {
            traced_parallel(d, &cfg, &mut records, tally)?
        } else {
            traced_k1(d, &cfg, &mut records, tally)?
        };
        traced_wall += traced.wall.as_secs_f64();
        moves += traced.moves;
        anneal_wall += traced.anneal_wall.as_secs_f64();
        if traced.checked.is_none() || traced.checked != reference {
            tally.error(format!(
                "{} trace parity: traced {:?} vs untraced {reference:?}",
                d.name, traced.checked
            ));
        }
        let k1 = if k > 1 {
            let mut c = cfg.clone();
            c.threads = 1;
            traced_k1(d, &c, &mut k1_records, tally)?
        } else {
            traced
        };
        k1_moves += k1.moves;
        k1_wall += k1.anneal_wall.as_secs_f64();

        for (j, b) in regime_boundaries(&k1.boundaries).into_iter().enumerate() {
            let rng_seed = seed ^ ((i as u64) << 32) ^ (j as u64) ^ 0x5eed_0000;
            stage_replay(d, &cfg, b, rng_seed, &mut samples, k == 1, tally)?;
            if workload != Workload::ResumeChain {
                let path = scratch.path().join("boundary.ckpt");
                checkpoint_at(d, &cfg, b)
                    .save(&path, None)
                    .map_err(|e| format!("{}: checkpoint save: {e}", d.name))?;
                checkpoint_ops(
                    d,
                    &cfg,
                    &path,
                    &scratch.path().join("copy.ckpt"),
                    &mut samples,
                )?;
            }
        }

        if workload == Workload::ResumeChain {
            // The core state path on the chain's own checkpoints.
            let path = scratch.path().join(format!("{}.ckpt", d.name));
            let copy = scratch.path().join("copy.ckpt");
            let chained = resume_chain(d, &cfg, &path, |p| {
                checkpoint_ops(d, &cfg, p, &copy, &mut samples)
            });
            let chained = check("chain", d, chained, tally);
            if chained.is_none() || chained != reference {
                tally.error(format!(
                    "{} resume parity: chained {chained:?} vs uninterrupted {reference:?}",
                    d.name
                ));
            }
        }

        traced_baseline(d, seed, &mut samples, tally)?;
    }

    let mut rep = Report {
        metrics: Vec::new(),
    };
    let all = |f: fn(&AnnealRecord) -> &Vec<f64>| -> Vec<f64> {
        records.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let regime_all =
        |recs: &[AnnealRecord], f: fn(&AnnealRecord) -> &[Vec<f64>; 3], r: Regime| -> Vec<f64> {
            recs.iter()
                .flat_map(|rec| f(rec)[r.index()].iter().copied())
                .collect()
        };

    rep.value(
        "anneal.temps",
        records.iter().map(|r| r.temps).sum::<usize>() as f64,
        "count",
    );
    for r in Regime::ALL {
        let m: usize = records.iter().map(|x| x.moves[r.index()]).sum();
        rep.value(&format!("anneal.moves.{}", r.name()), m as f64, "count");
    }
    for r in Regime::ALL {
        let m: usize = records.iter().map(|x| x.moves[r.index()]).sum();
        let a: usize = records.iter().map(|x| x.accepted[r.index()]).sum();
        rep.value(
            &format!("anneal.accept.{}", r.name()),
            a as f64 / m.max(1) as f64,
            "ratio",
        );
    }
    let moves_per_s = moves as f64 / anneal_wall;
    rep.value("anneal.moves_per_s", moves_per_s, "1/s");
    rep.per_call("anneal.warmup_ms", &all(|r| &r.warmup_ms), "ms");
    rep.per_call("anneal.exchange_wait_ms", &all(|r| &r.wait_ms), "ms");
    // K moves/s over K times the K = 1 rate on the same designs (1 at K = 1).
    rep.value(
        "anneal.parallel_eff",
        moves_per_s / (k as f64 * k1_moves as f64 / k1_wall),
        "ratio",
    );

    for r in Regime::ALL {
        rep.per_call(
            &format!("core.cascade_ns.{}", r.name()),
            &regime_all(&records, |x| &x.cascade, r),
            "ns",
        );
    }
    for r in Regime::ALL {
        rep.per_call(
            &format!("core.commit_ns.{}", r.name()),
            &regime_all(&records, |x| &x.commit, r),
            "ns",
        );
    }
    for r in Regime::ALL {
        rep.per_call(
            &format!("core.undo_ns.{}", r.name()),
            &regime_all(&records, |x| &x.undo, r),
            "ns",
        );
    }
    // Stage coverage: the replayed stages' mean time per move against the
    // real cascade's, per regime, weighted by the real anneal's moves.
    let (mut covered, mut whole) = (0.0, 0.0);
    let k1_run = if k > 1 { &k1_records } else { &records };
    for r in Regime::ALL {
        let weight: usize = k1_run.iter().map(|x| x.moves[r.index()]).sum();
        let replayed = samples.sum(&format!("replay.moves.{}", r.name()));
        let cascade = regime_all(k1_run, |x| &x.cascade, r);
        if replayed > 0.0 && !cascade.is_empty() {
            let stages = samples.sum(&format!("replay.stage_ns_sum.{}", r.name())) / replayed;
            covered += weight as f64 * stages;
            whole += weight as f64 * mean(&cascade);
        }
    }
    rep.value("core.stage_coverage", covered / whole, "ratio");

    rep.per_call(
        "core.problem_new_ms",
        samples.get("core.problem_new_ms"),
        "ms",
    );
    rep.per_call("core.snapshot_ms", &all(|r| &r.snapshot_ms), "ms");
    let mut adopt = all(|r| &r.adopt_ms);
    adopt.extend_from_slice(samples.get("core.adopt_ms"));
    rep.per_call("core.adopt_ms", &adopt, "ms");
    for name in [
        "core.ckpt_save_ms",
        "core.ckpt_load_ms",
        "core.ckpt_validate_ms",
        "core.restore_ms",
        "core.audit_ms",
    ] {
        rep.per_call(name, samples.get(name), "ms");
    }
    rep.per_call("core.ckpt_bytes", samples.get("core.ckpt_bytes"), "bytes");

    for r in Regime::ALL {
        let n = r.name();
        rep.per_call(
            &format!("place.move_ns.{n}"),
            samples.get(&format!("place.move_ns.{n}")),
            "ns",
        );
    }
    for (stage, unit, per_move) in [
        ("route.ripup_ns", "ns", false),
        ("route.nets_ripped", "count", true),
        ("route.global_ns", "ns", false),
        ("route.global_nets", "count", true),
        ("route.detail_ns", "ns", false),
        ("route.detail_routed", "count", true),
        ("route.detail_failures", "count", true),
    ] {
        for r in Regime::ALL {
            let name = format!("{stage}.{}", r.name());
            if per_move {
                rep.per_move(&name, samples.get(&name), unit);
            } else {
                rep.per_call(&name, samples.get(&name), unit);
            }
        }
    }
    for r in Regime::ALL {
        let n = r.name();
        let routed = samples.sum(&format!("route.detail_routed.{n}"));
        let failed = samples.sum(&format!("route.detail_failures.{n}"));
        rep.value(
            &format!("route.detail_useful.{n}"),
            routed / (routed + failed).max(1.0),
            "ratio",
        );
    }
    for r in Regime::ALL {
        let name = format!("route.txn_ns.{}", r.name());
        rep.per_call(&name, samples.get(&name), "ns");
    }
    for (stage, unit, per_move) in [
        ("timing.update_ns", "ns", false),
        ("timing.frontier", "count", true),
        ("timing.changed_nets", "count", true),
        ("timing.txn_ns", "ns", false),
    ] {
        for r in Regime::ALL {
            let name = format!("{stage}.{}", r.name());
            if per_move {
                rep.per_move(&name, samples.get(&name), unit);
            } else {
                rep.per_call(&name, samples.get(&name), unit);
            }
        }
    }
    rep.per_call(
        "timing.sta_full_ms",
        samples.get("timing.sta_full_ms"),
        "ms",
    );
    for name in [
        "baseline.place_ms",
        "baseline.route_ms",
        "baseline.sta_ms",
        "netlist.generate_ms",
        "core.size_ms",
    ] {
        rep.per_call(name, samples.get(name), "ms");
    }
    rep.value(
        "trace.overhead_pct",
        100.0 * (traced_wall - untraced_wall) / untraced_wall,
        "%",
    );
    Ok(rep.metrics)
}
