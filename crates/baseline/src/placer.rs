//! The annealing placer of the sequential flow.
//!
//! Cost = Σ_nets weight(net) · HPWL(net) + β · congestion-overflow², with
//! net weights raised for statically critical nets. All routing resources
//! (segmentation, antifuse granularity) are invisible at this level; that
//! blindness is the phenomenon the paper's experiments quantify.

use rand::rngs::StdRng;

use rowfpga_anneal::AnnealProblem;
use rowfpga_arch::Architecture;
use rowfpga_netlist::{NetId, Netlist};
use rowfpga_place::{CongestionMap, Move, MoveGenerator, MoveWeights, NetBbox, Placement};

use rowfpga_core::LayoutError;

/// Placer tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacerConfig {
    /// Weight of the channel-congestion overflow term.
    pub congestion_weight: f64,
    /// How strongly static criticality inflates a net's weight:
    /// `weight = 1 + timing_factor · criticality²`.
    pub timing_factor: f64,
    /// Extra cost per channel crossed by a net (vertical hops demand
    /// feedthroughs and cross antifuses).
    pub vertical_weight: f64,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        Self {
            congestion_weight: 0.02,
            timing_factor: 2.0,
            vertical_weight: 2.0,
        }
    }
}

/// Record of an applied placer move.
#[derive(Debug)]
pub struct AppliedPlacerMove {
    mv: Move,
    saved: Vec<(NetId, NetBbox)>,
}

/// The wirelength/congestion placement problem of the sequential flow.
#[derive(Debug)]
pub struct PlacerProblem<'a> {
    arch: &'a Architecture,
    netlist: &'a Netlist,
    placement: Placement,
    mover: MoveGenerator,
    config: PlacerConfig,
    net_weights: Vec<f64>,
    bboxes: Vec<NetBbox>,
    congestion: CongestionMap,
    /// Current exchange-window half-width (shrinks as acceptance falls).
    window: usize,
}

impl<'a> PlacerProblem<'a> {
    /// Creates the problem from a random initial placement.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the design does not fit the chip or has a
    /// combinational loop (criticality weighting needs levelization).
    pub fn new(
        arch: &'a Architecture,
        netlist: &'a Netlist,
        config: PlacerConfig,
        move_weights: MoveWeights,
        seed: u64,
    ) -> Result<PlacerProblem<'a>, LayoutError> {
        let placement = Placement::random(arch, netlist, seed).map_err(LayoutError::Placement)?;
        let crits =
            crate::criticality::net_criticalities(netlist).map_err(LayoutError::CombLoop)?;
        let net_weights: Vec<f64> = crits
            .iter()
            .map(|c| 1.0 + config.timing_factor * c * c)
            .collect();
        let bboxes: Vec<NetBbox> = netlist
            .nets()
            .map(|(id, _)| NetBbox::compute(arch, netlist, &placement, id))
            .collect();
        let mut congestion = CongestionMap::new(arch);
        for b in &bboxes {
            congestion.add_net(b);
        }
        Ok(PlacerProblem {
            arch,
            netlist,
            mover: MoveGenerator::new(arch, netlist, move_weights),
            placement,
            config,
            net_weights,
            bboxes,
            congestion,
            window: usize::MAX,
        })
    }

    /// The current placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Consumes the problem, returning the final placement.
    pub fn into_placement(self) -> Placement {
        self.placement
    }

    fn wire_cost(&self) -> f64 {
        self.bboxes
            .iter()
            .zip(&self.net_weights)
            .map(|(b, w)| w * b.hpwl(self.config.vertical_weight))
            .sum()
    }

    fn nets_of_move(&self, mv: &Move) -> Vec<NetId> {
        let mut nets: Vec<NetId> = mv
            .affected_cells(&self.placement)
            .into_iter()
            .flat_map(|c| self.netlist.nets_of_cell(c).iter().copied())
            .collect();
        nets.sort_unstable();
        nets.dedup();
        nets
    }
}

impl AnnealProblem for PlacerProblem<'_> {
    type Applied = AppliedPlacerMove;

    fn propose_and_apply(&mut self, rng: &mut StdRng) -> (AppliedPlacerMove, f64) {
        let window = (self.window < self.mover.max_window()).then_some(self.window);
        let mv = self
            .mover
            .propose_in_window(self.netlist, &self.placement, rng, window);
        let nets = self.nets_of_move(&mv);

        let mut delta = 0.0;
        let cong_before = self.congestion.cost();
        mv.apply(self.arch, self.netlist, &mut self.placement);
        let mut saved = Vec::with_capacity(nets.len());
        for net in nets {
            let old = self.bboxes[net.index()];
            let new = NetBbox::compute(self.arch, self.netlist, &self.placement, net);
            let w = self.net_weights[net.index()];
            delta +=
                w * (new.hpwl(self.config.vertical_weight) - old.hpwl(self.config.vertical_weight));
            self.congestion.remove_net(&old);
            self.congestion.add_net(&new);
            self.bboxes[net.index()] = new;
            saved.push((net, old));
        }
        delta += self.config.congestion_weight * (self.congestion.cost() - cong_before);
        (AppliedPlacerMove { mv, saved }, delta)
    }

    fn undo(&mut self, applied: AppliedPlacerMove) {
        applied
            .mv
            .undo(self.arch, self.netlist, &mut self.placement);
        for (net, old) in applied.saved {
            let new = self.bboxes[net.index()];
            self.congestion.remove_net(&new);
            self.congestion.add_net(&old);
            self.bboxes[net.index()] = old;
        }
    }

    fn commit(&mut self, _applied: AppliedPlacerMove) {}

    fn cost(&self) -> f64 {
        self.wire_cost() + self.config.congestion_weight * self.congestion.cost()
    }

    fn on_temperature(&mut self, stats: &rowfpga_anneal::TemperatureStats) {
        if stats.acceptance_ratio() < 0.44 {
            let current = self.window.min(self.mover.max_window());
            self.window = ((current as f64 * 0.85) as usize).max(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rowfpga_anneal::{anneal, AnnealConfig};
    use rowfpga_netlist::{generate, GenerateConfig};

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
            .tracks_per_channel(14)
            .build()
            .unwrap();
        (arch, nl)
    }

    #[test]
    fn incremental_cost_matches_recomputation() {
        let (arch, nl) = fixture();
        let mut p = PlacerProblem::new(
            &arch,
            &nl,
            PlacerConfig::default(),
            MoveWeights::default(),
            3,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut cost = p.cost();
        for i in 0..300 {
            let (applied, delta) = p.propose_and_apply(&mut rng);
            if i % 2 == 0 {
                p.commit(applied);
                cost += delta;
            } else {
                p.undo(applied);
            }
            assert!(
                (p.cost() - cost).abs() < 1e-6 * cost.abs().max(1.0),
                "drift at move {i}: tracked {cost} vs actual {}",
                p.cost()
            );
        }
    }

    #[test]
    fn undo_restores_placement_and_cost() {
        let (arch, nl) = fixture();
        let mut p = PlacerProblem::new(
            &arch,
            &nl,
            PlacerConfig::default(),
            MoveWeights::default(),
            3,
        )
        .unwrap();
        let cost0 = p.cost();
        let sites: Vec<_> = nl
            .cells()
            .map(|(id, _)| p.placement().site_of(id))
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let (applied, _) = p.propose_and_apply(&mut rng);
            p.undo(applied);
        }
        assert!((p.cost() - cost0).abs() < 1e-9);
        for (i, (id, _)) in nl.cells().enumerate() {
            assert_eq!(p.placement().site_of(id), sites[i]);
        }
    }

    #[test]
    fn annealing_reduces_wirelength() {
        let (arch, nl) = fixture();
        let mut p = PlacerProblem::new(
            &arch,
            &nl,
            PlacerConfig::default(),
            MoveWeights::default(),
            3,
        )
        .unwrap();
        let initial = p.cost();
        let out = anneal(&mut p, &AnnealConfig::fast(), |_| {});
        assert!(
            out.final_cost < initial * 0.9,
            "annealing left cost at {} (from {initial})",
            out.final_cost
        );
        assert!(p.placement().check_invariants(&arch, &nl));
    }
}
