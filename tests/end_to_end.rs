//! Cross-crate integration: both flows end-to-end on a small design,
//! audited by the independent routing verifier and the standalone timing
//! analyzer. (The paper-scale benchmarks run in the release-mode
//! experiment binaries; these tests use a reduced design so the debug-mode
//! suite stays quick.)

use rowfpga::baseline::{SeqPrConfig, SequentialPlaceRoute};
use rowfpga::core::{size_architecture, SimPrConfig, SimultaneousPlaceRoute, SizingConfig};
use rowfpga::netlist::{generate, GenerateConfig};
use rowfpga::route::verify_routing;
use rowfpga::timing::Sta;

fn small_design() -> GenerateConfig {
    GenerateConfig {
        num_cells: 80,
        num_inputs: 6,
        num_outputs: 6,
        num_seq: 5,
        seed: 3,
        ..GenerateConfig::default()
    }
}

#[test]
fn simultaneous_flow_end_to_end_on_a_small_design() {
    let netlist = generate(&small_design());
    let arch = size_architecture(&netlist, &SizingConfig::default()).unwrap();
    let result = SimultaneousPlaceRoute::new(SimPrConfig::fast())
        .run(&arch, &netlist)
        .unwrap();
    assert!(result.fully_routed);
    verify_routing(&result.routing, &arch, &netlist, &result.placement).unwrap();
    // reported delay equals an independent re-analysis
    let sta = Sta::analyze(&arch, &netlist, &result.placement, &result.routing).unwrap();
    assert!((sta.worst_delay() - result.worst_delay).abs() < 1e-6);
    // dynamics recorded something sensible
    assert!(!result.dynamics.is_empty());
    let last = result.dynamics.samples().last().unwrap();
    assert!(last.nets_unrouted <= 0.05, "dynamics should converge");
}

#[test]
fn sequential_flow_end_to_end_on_a_small_design() {
    let netlist = generate(&small_design());
    let arch = size_architecture(&netlist, &SizingConfig::default()).unwrap();
    let result = SequentialPlaceRoute::new(SeqPrConfig::fast())
        .run(&arch, &netlist)
        .unwrap();
    assert!(result.fully_routed);
    verify_routing(&result.routing, &arch, &netlist, &result.placement).unwrap();
}

#[test]
fn simultaneous_beats_sequential_on_timing() {
    // The headline claim (Table 1), at smoke effort on one benchmark.
    let netlist = generate(&small_design());
    let arch = size_architecture(&netlist, &SizingConfig::default()).unwrap();
    let seq = SequentialPlaceRoute::new(SeqPrConfig::fast().with_seed(1))
        .run(&arch, &netlist)
        .unwrap();
    let sim = SimultaneousPlaceRoute::new(SimPrConfig::fast().with_seed(1))
        .run(&arch, &netlist)
        .unwrap();
    assert!(seq.fully_routed && sim.fully_routed);
    assert!(
        sim.worst_delay < seq.worst_delay,
        "simultaneous {:.1} ns did not beat sequential {:.1} ns",
        sim.worst_delay / 1000.0,
        seq.worst_delay / 1000.0
    );
}

#[test]
fn both_flows_share_the_layout_result_interface() {
    let netlist = generate(&small_design());
    let arch = size_architecture(&netlist, &SizingConfig::default()).unwrap();
    let results = [
        SequentialPlaceRoute::new(SeqPrConfig::fast())
            .run(&arch, &netlist)
            .unwrap(),
        SimultaneousPlaceRoute::new(SimPrConfig::fast())
            .run(&arch, &netlist)
            .unwrap(),
    ];
    for r in &results {
        assert!(r.worst_delay > 0.0);
        assert!(!r.critical_path.elements.is_empty());
        assert_eq!(r.fully_routed, r.incomplete == 0);
        assert!(r.placement.check_invariants(&arch, &netlist));
    }
}

/// One run's layout fingerprint: the final occupancy digest, the exact bits
/// of the reported worst delay, the temperature count and the total moves.
type Fingerprint = (u64, u64, usize, usize);

fn fingerprint_of(r: &rowfpga::core::LayoutResult) -> Fingerprint {
    (
        r.routing.occupancy_digest(),
        r.worst_delay.to_bits(),
        r.temperatures,
        r.total_moves,
    )
}

fn driver(seed: u64, threads: usize) -> SimultaneousPlaceRoute {
    SimultaneousPlaceRoute::new(SimPrConfig {
        threads,
        ..SimPrConfig::fast().with_seed(seed)
    })
}

fn fingerprint(netlist: &rowfpga::netlist::Netlist, seed: u64, threads: usize) -> Fingerprint {
    let arch = size_architecture(netlist, &SizingConfig::default()).unwrap();
    let r = driver(seed, threads)
        .run_observed(&arch, netlist, "fingerprint", &rowfpga_obs::Obs::disabled())
        .unwrap();
    fingerprint_of(&r)
}

#[test]
fn layouts_are_bit_identical_to_the_recorded_fingerprints() {
    // Recorded constants: any change to the incremental router, the timing
    // kernel or the annealer that alters a layout by one bit fails here.
    // Speed-ups of the move cascade must keep every layout identical.
    use rowfpga::netlist::{paper_preset, PaperBenchmark};
    let s1 = generate(&paper_preset(PaperBenchmark::S1));
    let small = generate(&small_design());
    let got = [
        fingerprint(&s1, 1, 1),
        fingerprint(&s1, 1, 2),
        fingerprint(&small, 4, 1),
        fingerprint(&small, 4, 2),
    ];
    let expected: [Fingerprint; 4] = [
        (11647783339538944664, 4685907057586177311, 40, 41010),
        (7793755697365387216, 4686072666027552932, 40, 82020),
        (11411402504555534924, 4678846112797294592, 33, 11435),
        (17429921106684468387, 4679212087991378903, 27, 18730),
    ];
    assert_eq!(got, expected);
    // `run_parallel` is the same driver under its older name.
    let arch = size_architecture(&small, &SizingConfig::default()).unwrap();
    let forwarded = driver(4, 2)
        .run_parallel(&arch, &small, "fingerprint", &rowfpga_obs::Obs::disabled())
        .unwrap();
    assert_eq!(fingerprint_of(&forwarded), expected[3]);
}
