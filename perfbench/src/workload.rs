//! The four workloads and their untraced, timed runs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rowfpga_arch::Architecture;
use rowfpga_baseline::{SeqPrConfig, SequentialPlaceRoute};
use rowfpga_core::{
    size_architecture, LayoutError, LayoutProblem, LayoutResult, ResilienceConfig, SimPrConfig,
    SimultaneousPlaceRoute, SizingConfig, StopFlag, StopReason,
};
use rowfpga_netlist::{generate, paper_preset, GenerateConfig, Netlist, PaperBenchmark};
use rowfpga_obs::Obs;
use rowfpga_place::Placement;
use rowfpga_route::{verify_routing, RoutingState};
use rowfpga_timing::Sta;

use crate::stats::{geomean, mean, median, min};
use crate::{Metric, Tally};

/// Times the set-up of every design this many times per run. `setup_s` is
/// the fastest repetition: one repetition takes a few milliseconds, and
/// over a minute of repetitions on a shared host the median drifted by
/// up to 35 % while the minimum mostly held within 10 %.
const SETUP_REPS: usize = 30;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table 1: five presets, both flows, K = 1.
    Paper5,
    /// The 300-cell synthetic design shared with the older micro-benches.
    Midsize300,
    /// s1 annealed one temperature per checkpoint-resume call.
    ResumeChain,
    /// cse and s1 through the two-replica parallel annealer.
    Replicas2,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper5,
        Workload::Midsize300,
        Workload::ResumeChain,
        Workload::Replicas2,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper5 => "paper5",
            Workload::Midsize300 => "midsize300",
            Workload::ResumeChain => "resume_chain",
            Workload::Replicas2 => "replicas2",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Seed used when `--seed` is not given (Table 1 uses 1; the older
    /// throughput benches use 5).
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Paper5 => 1,
            _ => 5,
        }
    }

    /// Annealing replicas of the simultaneous flow.
    pub fn replicas(self) -> usize {
        match self {
            Workload::Replicas2 => 2,
            _ => 1,
        }
    }

    /// Passes over the designs a run makes at least. A resume-chain pass
    /// writes, fsyncs and reloads one checkpoint per temperature, and its
    /// time per move varies by about 10 % from pass to pass with the same
    /// inputs, so its runs report the median of five passes.
    pub fn min_passes(self) -> usize {
        match self {
            Workload::ResumeChain => 5,
            _ => 1,
        }
    }

    /// The designs the workload lays out.
    pub fn designs(self) -> Vec<DesignSpec> {
        use PaperBenchmark::{Bw, Cse, Ex1, S1a, S1};
        let presets = |list: &[PaperBenchmark]| {
            list.iter()
                .map(|&b| DesignSpec {
                    name: b.name(),
                    config: paper_preset(b),
                })
                .collect()
        };
        match self {
            Workload::Paper5 => presets(&[S1, Cse, Ex1, Bw, S1a]),
            Workload::Midsize300 => vec![DesignSpec {
                name: "midsize300",
                config: GenerateConfig {
                    num_cells: 300,
                    num_inputs: 12,
                    num_outputs: 12,
                    num_seq: 10,
                    seed: 42,
                    ..GenerateConfig::default()
                },
            }],
            Workload::ResumeChain => presets(&[S1]),
            Workload::Replicas2 => presets(&[Cse, S1]),
        }
    }
}

/// A design: its name and the generator configuration that builds it.
#[derive(Clone, Debug)]
pub struct DesignSpec {
    /// Design name.
    pub name: &'static str,
    /// Netlist generator configuration.
    pub config: GenerateConfig,
}

/// A generated design on its sized chip.
#[derive(Debug)]
pub struct Design {
    /// Design name.
    pub name: &'static str,
    /// The netlist.
    pub netlist: Netlist,
    /// The sized chip.
    pub arch: Architecture,
}

/// The simultaneous flow's configuration for `workload` at `seed`.
pub fn sim_config(workload: Workload, seed: u64) -> SimPrConfig {
    let mut cfg = SimPrConfig::default().with_seed(seed);
    cfg.threads = workload.replicas();
    cfg
}

/// The sequential flow's configuration at `seed`.
pub fn seq_config(seed: u64) -> SeqPrConfig {
    SeqPrConfig::default().with_seed(seed)
}

/// Builds one design: generate the netlist, size the chip.
pub fn build_design(spec: &DesignSpec) -> Result<Design, String> {
    let netlist = generate(&spec.config);
    let arch = size_architecture(&netlist, &SizingConfig::default())
        .map_err(|e| format!("{}: sizing failed: {e}", spec.name))?;
    Ok(Design {
        name: spec.name,
        netlist,
        arch,
    })
}

/// The set-up a layout needs before annealing: generate + size +
/// `LayoutProblem::new` (random placement, initial route, full STA), for
/// every design, `reps` times. Returns the designs and the wall clock of
/// each repetition, in seconds.
fn setup(workload: Workload, seed: u64, reps: usize) -> Result<(Vec<Design>, Vec<f64>), String> {
    let cfg = sim_config(workload, seed);
    let mut times = Vec::with_capacity(reps);
    let mut designs = Vec::new();
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        designs = workload
            .designs()
            .iter()
            .map(build_design)
            .collect::<Result<Vec<_>, _>>()?;
        for d in &designs {
            let problem = LayoutProblem::new(
                &d.arch,
                &d.netlist,
                cfg.router,
                cfg.cost,
                cfg.move_weights,
                cfg.placement_seed,
            )
            .map_err(|e| format!("{}: {e}", d.name))?;
            std::hint::black_box(&problem);
        }
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((designs, times))
}

/// What a checked layout reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Checked {
    /// Worst delay re-derived by the standalone analysis (ps).
    pub worst_delay: f64,
    /// `RoutingState::occupancy_digest` of the final routing.
    pub digest: u64,
    /// Temperatures the annealer ran.
    pub temperatures: usize,
    /// Annealing moves attempted.
    pub total_moves: usize,
}

/// Verifies a finished layout's routing and re-derives its worst delay
/// with a standalone timing analysis. A routing that fails verification or
/// an analysis that fails marks the run incorrect.
pub fn verify_layout(
    label: &str,
    design: &Design,
    placement: &Placement,
    routing: &RoutingState,
    tally: &mut Tally,
) -> Option<f64> {
    if let Err(e) = verify_routing(routing, &design.arch, &design.netlist, placement) {
        tally.error(format!(
            "{label} {}: routing fails verification: {e}",
            design.name
        ));
        return None;
    }
    match Sta::analyze(&design.arch, &design.netlist, placement, routing) {
        Ok(sta) => Some(sta.worst_delay()),
        Err(e) => {
            tally.error(format!(
                "{label} {}: standalone STA failed: {e}",
                design.name
            ));
            None
        }
    }
}

/// Checks one layout's output. An `Err`, a routing that fails
/// verification, a reported worst delay the standalone analysis does not
/// reproduce, or a layout left not fully routed counts as failed; all but
/// the first and the last also mark the run incorrect.
pub fn check(
    label: &str,
    design: &Design,
    result: Result<LayoutResult, LayoutError>,
    tally: &mut Tally,
) -> Option<Checked> {
    tally.attempted += 1;
    let checked = match result {
        Ok(r) => verify_layout(label, design, &r.placement, &r.routing, tally).and_then(|worst| {
            if worst.to_bits() != r.worst_delay.to_bits() {
                tally.error(format!(
                    "{label} {}: reported worst delay {} ps, standalone STA {worst} ps",
                    design.name, r.worst_delay
                ));
                None
            } else if !r.fully_routed {
                eprintln!(
                    "perfbench: {label} {}: not fully routed ({} nets incomplete)",
                    design.name, r.incomplete
                );
                None
            } else {
                Some(Checked {
                    worst_delay: worst,
                    digest: r.routing.occupancy_digest(),
                    temperatures: r.temperatures,
                    total_moves: r.total_moves,
                })
            }
        }),
        Err(e) => {
            eprintln!("perfbench: {label} {}: layout error: {e}", design.name);
            None
        }
    };
    tally.failed += usize::from(checked.is_none());
    checked
}

/// A directory inside the checkout for the run's checkpoint files,
/// removed again when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `perfbench/.scratch-<pid>` under the working directory.
    pub fn new() -> Result<ScratchDir, String> {
        let dir = PathBuf::from("perfbench").join(format!(".scratch-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Anneals `design` one temperature per `run_with_stop` call: each call
/// raises `temp_budget` by one and resumes from the previous call's
/// checkpoint, with a checkpoint and a self-audit after every temperature.
/// `after_call` sees the checkpoint each early-stopped call left behind.
pub fn resume_chain(
    design: &Design,
    cfg: &SimPrConfig,
    checkpoint: &Path,
    mut after_call: impl FnMut(&Path) -> Result<(), String>,
) -> Result<LayoutResult, LayoutError> {
    // Start from nothing: no base file and no retention generations left
    // by an earlier chain over the same path.
    let _ = std::fs::remove_file(checkpoint);
    for (_, generation) in rowfpga_core::list_generations(checkpoint) {
        let _ = std::fs::remove_file(generation);
    }
    let mut budget = 0;
    loop {
        budget += 1;
        let mut c = cfg.clone();
        c.resilience = ResilienceConfig {
            checkpoint_path: Some(checkpoint.to_path_buf()),
            checkpoint_every: 1,
            resume_path: (budget > 1).then(|| checkpoint.to_path_buf()),
            temp_budget: Some(budget),
            audit_every: 1,
            ..ResilienceConfig::default()
        };
        let result = SimultaneousPlaceRoute::new(c).run_with_stop(
            &design.arch,
            &design.netlist,
            design.name,
            &Obs::disabled(),
            &StopFlag::none(),
        )?;
        if result.stop_reason != StopReason::Deadline {
            return Ok(result);
        }
        after_call(checkpoint).map_err(|detail| LayoutError::Audit { detail })?;
    }
}

/// Runs the workload's simultaneous layout of `design` the way the workload
/// defines it.
pub fn run_sim(
    workload: Workload,
    design: &Design,
    cfg: &SimPrConfig,
    scratch: &ScratchDir,
) -> Result<LayoutResult, LayoutError> {
    let tool = SimultaneousPlaceRoute::new(cfg.clone());
    match workload {
        Workload::ResumeChain => {
            let path = scratch.path().join(format!("{}.ckpt", design.name));
            resume_chain(design, cfg, &path, |_| Ok(()))
        }
        Workload::Replicas2 => {
            tool.run_parallel(&design.arch, &design.netlist, design.name, &Obs::disabled())
        }
        Workload::Paper5 | Workload::Midsize300 => tool.run(&design.arch, &design.netlist),
    }
}

/// One pass over the workload's designs: the simultaneous flow, then the
/// sequential flow, on each, every output checked.
#[derive(Debug)]
struct Pass {
    sim_wall: f64,
    sim_moves: usize,
    seq_wall: f64,
    seq_moves: usize,
    sim: Vec<Option<Checked>>,
    seq: Vec<Option<Checked>>,
}

fn run_pass(
    workload: Workload,
    designs: &[Design],
    seed: u64,
    scratch: &ScratchDir,
    tally: &mut Tally,
) -> Pass {
    let sim_cfg = sim_config(workload, seed);
    let seq_tool = SequentialPlaceRoute::new(seq_config(seed));
    let mut pass = Pass {
        sim_wall: 0.0,
        sim_moves: 0,
        seq_wall: 0.0,
        seq_moves: 0,
        sim: Vec::new(),
        seq: Vec::new(),
    };
    for d in designs {
        let start = Instant::now();
        let result = run_sim(workload, d, &sim_cfg, scratch);
        pass.sim_wall += start.elapsed().as_secs_f64();
        let sim = check("sim", d, result, tally);
        pass.sim_moves += sim.map_or(0, |c| c.total_moves);
        pass.sim.push(sim);

        let start = Instant::now();
        let result = seq_tool.run(&d.arch, &d.netlist);
        pass.seq_wall += start.elapsed().as_secs_f64();
        let seq = check("seq", d, result, tally);
        pass.seq_moves += seq.map_or(0, |c| c.total_moves);
        pass.seq.push(seq);
    }
    pass
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// The untraced run: set-up, then passes over the designs until at least
/// `seconds` of layout time have been measured and at least
/// [`Workload::min_passes`] passes made. Every pass lays out the same
/// inputs, so repeated passes only tighten the timings (medians).
///
/// The reported time metric is per annealing move. A layout's wall clock
/// follows its schedule length, which the annealing seed moves by 13-19 %
/// (interquartile range over ten seeds) on these designs, while the time
/// per move varies far less. The per-layout wall clocks, the runtime ratio
/// of the two flows and the Table 1 delay gain move as much with the seed
/// (the gain by up to 50 % on one design), so they are printed by name
/// above the result line but not reported in it.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let (designs, setup_times) = setup(workload, seed, SETUP_REPS)?;
    let scratch = ScratchDir::new()?;
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    while passes.len() < workload.min_passes() || start.elapsed().as_secs_f64() < seconds {
        let pass = run_pass(workload, &designs, seed, &scratch, tally);
        if let Some(first) = passes.first() {
            if first.sim != pass.sim || first.seq != pass.seq {
                tally.error("a repeated pass over the same inputs gave different layouts".into());
            }
        }
        passes.push(pass);
    }
    if workload == Workload::ResumeChain {
        // The chained layout must equal one uninterrupted run of the same
        // design and seed; checked outside the timed passes.
        let cfg = sim_config(workload, seed);
        for (d, chained) in designs.iter().zip(&passes[0].sim) {
            let whole = SimultaneousPlaceRoute::new(cfg.clone()).run(&d.arch, &d.netlist);
            let whole = check("uninterrupted", d, whole, tally);
            if whole.is_none() || whole != *chained {
                tally.error(format!(
                    "resume chain of {} differs from the uninterrupted run: {chained:?} vs {whole:?}",
                    d.name
                ));
            }
        }
    }

    let first = &passes[0];
    for (i, d) in designs.iter().enumerate() {
        println!(
            "{:<12} cells {:>4} nets {:>4}  sim {}  seq {}",
            d.name,
            d.netlist.num_cells(),
            d.netlist.num_nets(),
            describe(first.sim[i]),
            describe(first.seq[i]),
        );
    }
    let sim_wall = median(passes.iter().map(|p| p.sim_wall).collect());
    let seq_wall = median(passes.iter().map(|p| p.seq_wall).collect());
    let us_per_move = |wall: f64, moves: usize| 1e6 * wall / moves.max(1) as f64;
    let sim_us: Vec<f64> = passes
        .iter()
        .map(|p| us_per_move(p.sim_wall, p.sim_moves))
        .collect();
    let seq_us = median(
        passes
            .iter()
            .map(|p| us_per_move(p.seq_wall, p.seq_moves))
            .collect(),
    );
    let both: Vec<(Checked, Checked)> = first
        .sim
        .iter()
        .zip(&first.seq)
        .filter_map(|(s, q)| Some(((*s)?, (*q)?)))
        .collect();
    let gains: Vec<f64> = both
        .iter()
        .map(|(s, q)| 100.0 * (q.worst_delay - s.worst_delay) / q.worst_delay)
        .collect();
    let ratios: Vec<f64> = both
        .iter()
        .map(|(s, q)| q.worst_delay / s.worst_delay)
        .collect();
    let sim_delays: Vec<f64> = first.sim.iter().flatten().map(|c| c.worst_delay).collect();
    println!(
        "passes          {:>12}  sim us/move by pass {sim_us:.2?}",
        passes.len()
    );
    println!(
        "setup_s         {:>12.6} s median of {} repetitions",
        median(setup_times.clone()),
        setup_times.len()
    );
    println!("sim_wall_s      {sim_wall:>12.4} s");
    println!("seq_wall_s      {seq_wall:>12.4} s");
    println!("sim_seq_ratio   {:>12.4} x", sim_wall / seq_wall);
    println!("seq_us_per_move {seq_us:>12.4} us");
    println!("delay_gain_pct  {:>12.4} %", mean(&gains));
    println!("delay_ratio     {:>12.4} x", geomean(&ratios));
    println!(
        "failed_share    {:>12.4} ratio ({} of {} layouts)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    Ok(vec![
        ("sim_us_per_move".into(), median(sim_us), "us"),
        ("worst_delay_ps".into(), geomean(&sim_delays), "ps"),
        ("setup_s".into(), min(&setup_times), "s"),
        ("peak_rss_mb".into(), peak_rss_mb()?, "MB"),
    ])
}

fn describe(c: Option<Checked>) -> String {
    match c {
        Some(c) => format!(
            "{:>10.1} ps {:>4} temps {:>7} moves",
            c.worst_delay, c.temperatures, c.total_moves
        ),
        None => "failed".into(),
    }
}
