// rowfpga-lint: hot-path
//! The incremental worst-case delay engine (paper §3.5, Figure 5).
//!
//! Cells are levelized once (levels depend only on connectivity), which
//! fixes a topological order of the combinational cells. Every per-cell
//! table is indexed by *node*: the combinational cells take nodes `0..C`
//! in that order, and all other cells follow in id order. A move's update
//! runs in two steps. [`TimingState::update_net_delays`] recomputes the
//! rerouted nets' interconnect delays and marks their sinks.
//! [`TimingState::propagate`] then pushes the change to the path
//! boundaries through a *frontier*: a dirty bitset over nodes `0..C`,
//! swept word by word in ascending order, so arrivals, intrinsic delays and
//! CSR slices are read in memory order. A node's arrival is refreshed from
//! its inputs, and only if it changed are its fanout nodes marked. Every
//! fanout sits at a later node than its driver, so the sweep refreshes each
//! node once, after all its drivers, and stops at the last dirty word.
//!
//! Net delays live in one flat arena with per-net offsets, read through
//! precomputed fanin and fanout CSR tables. All mutations are journaled
//! (old delay values are copied into one flat buffer) so a rejected move
//! can be undone exactly.

use std::ops::Range;

use rowfpga_arch::Architecture;
use rowfpga_netlist::{CellId, CombLoopError, Levels, NetId, Netlist, PinRef};
use rowfpga_place::Placement;
use rowfpga_route::RoutingState;

use crate::delay::{cell_intrinsic_delay, endpoint_intrinsic_delay, net_sink_delays_into};
use crate::elmore::ElmoreScratch;
use crate::sta::is_endpoint;

/// Arrival changes smaller than this are not propagated.
const EPS: f64 = 1e-9;

/// One input connection of a node: the driving node and the arena index
/// of this pin's net delay — everything `worst_input_arrival` re-derived
/// per call, resolved once.
#[derive(Clone, Copy, Debug)]
struct FaninEdge {
    driver: u32,
    slot: u32,
}

/// Lookup tables derived from connectivity and fabric delay parameters,
/// both immutable for the lifetime of the state, all indexed by node:
/// fanin edges and fanout nodes in CSR form, per-net offsets into the
/// delay arena and intrinsic delays. These turn the frontier's inner loop
/// into flat, ascending array reads.
#[derive(Clone, Debug)]
struct CellTables {
    /// The number `C` of combinational cells: nodes `0..C` are swept,
    /// nodes from `C` on are path boundaries.
    comb: usize,
    /// Every cell's node, indexed by cell id.
    node_of: Vec<u32>,
    fanin_start: Vec<u32>,
    fanin_edges: Vec<FaninEdge>,
    /// CSR offsets into `fanout`, one slice per node.
    fanout_start: Vec<u32>,
    /// The sink node of every pin the node's output drives, in sink order,
    /// without the boundary sinks that are not endpoints.
    fanout: Vec<u32>,
    /// Net `n`'s sink delays occupy `net_start[n]..net_start[n + 1]` of
    /// the delay arena, in sink order.
    net_start: Vec<u32>,
    /// Delay through the cell; for a boundary node, its launch arrival.
    intrinsic: Vec<f64>,
    endpoint_intrinsic: Vec<f64>,
}

impl CellTables {
    // rowfpga-lint: begin-allow(hot-path) reason=one-time table construction before annealing starts
    fn build(arch: &Architecture, netlist: &Netlist, levels: &Levels) -> CellTables {
        let n = netlist.num_cells();
        let comb = levels.order().len();
        let mut cells = levels.order().to_vec();
        cells.extend(
            netlist
                .cells()
                .filter(|(_, c)| c.kind().is_boundary())
                .map(|(id, _)| id),
        );
        let mut node_of = vec![0u32; n];
        for (node, cell) in cells.iter().enumerate() {
            node_of[cell.index()] = node as u32;
        }
        let mut net_start = Vec::with_capacity(netlist.num_nets() + 1);
        let mut total = 0u32;
        for (_, net) in netlist.nets() {
            net_start.push(total);
            total += net.fanout() as u32;
        }
        net_start.push(total);
        let mut t = CellTables {
            comb,
            fanin_start: Vec::with_capacity(n + 1),
            fanin_edges: Vec::new(),
            fanout_start: Vec::with_capacity(n + 1),
            fanout: Vec::with_capacity(total as usize),
            net_start,
            intrinsic: Vec::with_capacity(n),
            endpoint_intrinsic: Vec::with_capacity(n),
            node_of,
        };
        for id in cells {
            let kind = netlist.cell(id).kind();
            t.fanin_start.push(t.fanin_edges.len() as u32);
            // Same pin order as `sta::argmax_input`, so the max-fold visits
            // arrivals in the identical sequence.
            let first_input = u8::from(kind.has_output());
            for pin in first_input..kind.num_pins() as u8 {
                let pin_ref = PinRef::new(id, pin);
                let Some(net) = netlist.net_of(pin_ref) else {
                    continue;
                };
                let nref = netlist.net(net);
                let sink_idx = nref
                    .sinks()
                    .iter()
                    .position(|s| *s == pin_ref)
                    .expect("pin is a sink of its net");
                t.fanin_edges.push(FaninEdge {
                    driver: t.node_of[nref.driver().cell.index()],
                    slot: t.net_start[net.index()] + sink_idx as u32,
                });
            }
            t.fanout_start.push(t.fanout.len() as u32);
            if let Some(net) = netlist.driven_net(id) {
                for s in netlist.net(net).sinks() {
                    let node = t.node_of[s.cell.index()];
                    if (node as usize) < comb || is_endpoint(netlist.cell(s.cell).kind()) {
                        t.fanout.push(node);
                    }
                }
            }
            t.intrinsic.push(cell_intrinsic_delay(arch, kind));
            t.endpoint_intrinsic
                .push(endpoint_intrinsic_delay(arch, kind));
        }
        t.fanin_start.push(t.fanin_edges.len() as u32);
        t.fanout_start.push(t.fanout.len() as u32);
        t
    }
    // rowfpga-lint: end-allow(hot-path)

    /// The arena range holding `net`'s sink delays.
    fn net_range(&self, net: NetId) -> Range<usize> {
        csr_range(&self.net_start, net.index())
    }
}

/// Entry `i`'s slice range in a CSR offset array.
fn csr_range(start: &[u32], i: usize) -> Range<usize> {
    start[i] as usize..start[i + 1] as usize
}

/// Generation-stamped undo log: the first mutation of each quantity inside
/// a transaction records its prior value in a flat array; per-index stamps
/// make the first-touch test O(1) with nothing to clear between
/// transactions. Arrivals are stamped and saved by node.
#[derive(Clone, Debug, Default)]
struct UndoLog {
    active: bool,
    generation: u64,
    arr_stamp: Vec<u64>,
    endpoint_stamp: Vec<u64>,
    net_stamp: Vec<u64>,
    saved_arr: Vec<(u32, f64)>,
    saved_endpoint: Vec<(u32, f64)>,
    /// Nets whose delays were journaled, in first-touch order; their prior
    /// values are concatenated in `saved_delays` in the same order.
    saved_nets: Vec<NetId>,
    saved_delays: Vec<f64>,
    worst: Option<f64>,
}

/// Reusable buffers for the two update steps: the frontier's dirty bitset
/// over nodes `0..C` with its lowest and highest dirty words (always swept
/// clean), epoch-stamped endpoint marks (no per-call clearing) and the
/// Elmore evaluation scratch.
#[derive(Clone, Debug)]
struct UpdateScratch {
    dirty: Vec<u64>,
    span: (usize, usize),
    /// Whether marks await [`TimingState::propagate`].
    pending: bool,
    epoch: u64,
    endpoint_dirty: Vec<u64>,
    elmore: ElmoreScratch,
}

/// Incrementally maintained timing state: per-node arrivals, per-net sink
/// delays and the worst endpoint arrival (the cost term `T`).
#[derive(Clone, Debug)]
pub struct TimingState {
    tables: CellTables,
    arr: Vec<f64>,
    /// Path-end arrivals, read at the boundary nodes only; a primary
    /// input's 0 never raises the worst.
    endpoint_arr: Vec<f64>,
    /// Every net's sink delays, flat; see [`CellTables::net_start`].
    delays: Vec<f64>,
    worst: f64,
    undo: UndoLog,
    scratch: UpdateScratch,
    /// Cells taken off the frontier by the most recent
    /// [`TimingState::propagate`] call (observability only; not
    /// journaled, since it never affects results).
    last_frontier: usize,
}

impl TimingState {
    /// Levelizes the netlist and computes the initial full analysis.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if the netlist has a combinational cycle.
    // rowfpga-lint: begin-allow(hot-path) reason=one-time constructor sizes every buffer for the whole run
    pub fn new(
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
    ) -> Result<TimingState, CombLoopError> {
        let tables = CellTables::build(arch, netlist, &Levels::compute(netlist)?);
        let n = netlist.num_cells();
        let mut state = TimingState {
            delays: vec![0.0; tables.net_start[netlist.num_nets()] as usize],
            scratch: UpdateScratch {
                dirty: vec![0; tables.comb.div_ceil(64)],
                span: (usize::MAX, 0),
                pending: false,
                epoch: 1,
                endpoint_dirty: vec![0; n],
                elmore: ElmoreScratch::default(),
            },
            tables,
            arr: vec![0.0; n],
            endpoint_arr: vec![f64::NEG_INFINITY; n],
            worst: 0.0,
            undo: UndoLog {
                arr_stamp: vec![0; n],
                endpoint_stamp: vec![0; n],
                net_stamp: vec![0; netlist.num_nets()],
                ..UndoLog::default()
            },
            last_frontier: 0,
        };
        state.full_analyze(arch, netlist, placement, routing);
        Ok(state)
    }
    // rowfpga-lint: end-allow(hot-path)

    /// Recomputes everything from scratch (used at construction and as a
    /// test oracle against the incremental path).
    pub fn full_analyze(
        &mut self,
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
    ) {
        assert!(
            !self.undo.active,
            "full analysis inside a transaction is not supported"
        );
        for (id, _) in netlist.nets() {
            net_sink_delays_into(
                arch,
                netlist,
                placement,
                routing,
                id,
                &mut self.scratch.elmore,
                &mut self.delays[self.tables.net_range(id)],
            );
        }
        let comb = self.tables.comb;
        self.arr[comb..].copy_from_slice(&self.tables.intrinsic[comb..]);
        for node in 0..comb {
            self.arr[node] = self.worst_fanin(node) + self.tables.intrinsic[node];
        }
        for e in comb..self.arr.len() {
            self.endpoint_arr[e] = self.worst_fanin(e) + self.tables.endpoint_intrinsic[e];
        }
        self.worst = self.scan_worst();
    }

    /// The latest input arrival of `node` over its precomputed fanin edges
    /// (0 with none) — the allocation- and lookup-free equivalent of
    /// [`crate::sta`]'s `worst_input_arrival`, folding arrivals in the same
    /// pin order with the same tie choice.
    fn worst_fanin(&self, node: usize) -> f64 {
        let edges = &self.tables.fanin_edges[csr_range(&self.tables.fanin_start, node)];
        let arrival = |e: &FaninEdge| self.arr[e.driver as usize] + self.delays[e.slot as usize];
        let Some((first, rest)) = edges.split_first() else {
            return 0.0;
        };
        rest.iter()
            .map(arrival)
            .fold(arrival(first), |best, a| if a > best { a } else { best })
    }

    /// Worst-case path delay `T`, in picoseconds.
    pub fn worst(&self) -> f64 {
        self.worst
    }

    /// Arrival time at a cell's output.
    pub fn arrival(&self, cell: CellId) -> f64 {
        self.arr[self.tables.node_of[cell.index()] as usize]
    }

    /// The interconnect delays currently charged to a net's sinks.
    pub fn net_delays(&self, net: NetId) -> &[f64] {
        &self.delays[self.tables.net_range(net)]
    }

    /// Every cell's output arrival time in cell-id order — the dense view
    /// behind [`TimingState::arrival`]. Differential oracles digest it to
    /// compare an incremental state against a from-scratch analysis.
    pub fn arrivals(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.tables.node_of.iter().map(|&n| self.arr[n as usize])
    }

    /// Cells processed by the propagation frontier of the most recent
    /// update (0 if it had nothing to do). A cheap proxy for how far a
    /// move's timing disturbance traveled.
    pub fn last_frontier(&self) -> usize {
        self.last_frontier
    }

    /// Starts journaling for a speculative move.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already active.
    pub fn begin_txn(&mut self) {
        assert!(!self.undo.active, "timing transaction already active");
        debug_assert!(
            self.undo.saved_arr.is_empty()
                && self.undo.saved_endpoint.is_empty()
                && self.undo.saved_nets.is_empty()
                && self.undo.saved_delays.is_empty()
                && self.undo.worst.is_none()
        );
        self.undo.active = true;
        self.undo.generation += 1;
    }

    /// Makes all changes since [`TimingState::begin_txn`] permanent.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn commit(&mut self) {
        assert!(self.undo.active, "no timing transaction to commit");
        self.undo.active = false;
        self.undo.saved_arr.clear();
        self.undo.saved_endpoint.clear();
        self.undo.saved_nets.clear();
        self.undo.saved_delays.clear();
        self.undo.worst = None;
    }

    /// Restores the state at [`TimingState::begin_txn`].
    ///
    /// # Panics
    ///
    /// Panics if no transaction is active.
    pub fn rollback(&mut self) {
        assert!(self.undo.active, "no timing transaction to roll back");
        self.undo.active = false;
        for &(node, v) in &self.undo.saved_arr {
            self.arr[node as usize] = v;
        }
        self.undo.saved_arr.clear();
        for &(node, v) in &self.undo.saved_endpoint {
            self.endpoint_arr[node as usize] = v;
        }
        self.undo.saved_endpoint.clear();
        let mut from = 0;
        for &net in &self.undo.saved_nets {
            let range = self.tables.net_range(net);
            let to = from + range.len();
            self.delays[range].copy_from_slice(&self.undo.saved_delays[from..to]);
            from = to;
        }
        self.undo.saved_nets.clear();
        self.undo.saved_delays.clear();
        if let Some(w) = self.undo.worst.take() {
            self.worst = w;
        }
    }

    /// Recomputes the delays of `changed` nets and propagates arrivals to
    /// the boundaries — [`TimingState::update_net_delays`] followed by
    /// [`TimingState::propagate`]. Returns the new worst delay.
    pub fn update_nets(
        &mut self,
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
        changed: &[NetId],
    ) -> f64 {
        self.update_net_delays(arch, netlist, placement, routing, changed);
        self.propagate()
    }

    /// The first update step: recomputes the delays of `changed` nets and
    /// marks their sinks for [`TimingState::propagate`], which must follow
    /// before the arrivals or the worst delay are read.
    pub fn update_net_delays(
        &mut self,
        arch: &Architecture,
        netlist: &Netlist,
        placement: &Placement,
        routing: &RoutingState,
        changed: &[NetId],
    ) {
        self.last_frontier = 0;
        if changed.is_empty() {
            return;
        }
        self.save_worst();
        self.scratch.pending = true;
        let mut span = self.scratch.span;
        for &net in changed {
            self.save_net(net);
            net_sink_delays_into(
                arch,
                netlist,
                placement,
                routing,
                net,
                &mut self.scratch.elmore,
                &mut self.delays[self.tables.net_range(net)],
            );
            let driver = self.tables.node_of[netlist.net(net).driver().cell.index()];
            self.mark_fanout(driver as usize, &mut span);
        }
        self.scratch.span = span;
    }

    /// The second update step: sweeps the dirty nodes in ascending order,
    /// refreshes the marked endpoints and returns the new worst delay.
    pub fn propagate(&mut self) -> f64 {
        if !std::mem::take(&mut self.scratch.pending) {
            return self.worst;
        }
        // Fanout always sits at a later node, so refreshing a node only
        // ever sets higher bits and each node is taken once, lowest first.
        let mut span = std::mem::replace(&mut self.scratch.span, (usize::MAX, 0));
        let mut word = span.0;
        while word <= span.1 {
            while self.scratch.dirty[word] != 0 {
                let bits = self.scratch.dirty[word];
                self.scratch.dirty[word] = bits & (bits - 1);
                let node = word * 64 + bits.trailing_zeros() as usize;
                self.last_frontier += 1;
                let new_arr = self.worst_fanin(node) + self.tables.intrinsic[node];
                if (new_arr - self.arr[node]).abs() <= EPS {
                    continue;
                }
                self.save_arr(node);
                self.arr[node] = new_arr;
                self.mark_fanout(node, &mut span);
            }
            word += 1;
        }

        // Epoch stamps replace per-call boolean arrays: a mark is "set" iff
        // its stamp equals the current epoch, so nothing is ever cleared.
        let epoch = self.scratch.epoch;
        self.scratch.epoch += 1;
        for e in self.tables.comb..self.arr.len() {
            if self.scratch.endpoint_dirty[e] != epoch {
                continue;
            }
            let ea = self.worst_fanin(e) + self.tables.endpoint_intrinsic[e];
            if (ea - self.endpoint_arr[e]).abs() > EPS {
                self.save_endpoint(e);
                self.endpoint_arr[e] = ea;
            }
        }
        self.worst = self.scan_worst();
        self.worst
    }

    /// Marks the sinks driven by `node`: a combinational sink sets its
    /// dirty bit (widening `span`, the dirty word range), any other is an
    /// endpoint.
    fn mark_fanout(&mut self, node: usize, span: &mut (usize, usize)) {
        for &s in &self.tables.fanout[csr_range(&self.tables.fanout_start, node)] {
            let s = s as usize;
            if s < self.tables.comb {
                self.scratch.dirty[s / 64] |= 1 << (s % 64);
                *span = (span.0.min(s / 64), span.1.max(s / 64));
            } else {
                self.scratch.endpoint_dirty[s] = self.scratch.epoch;
            }
        }
    }

    fn scan_worst(&self) -> f64 {
        self.endpoint_arr[self.tables.comb..]
            .iter()
            .fold(0.0f64, |w, &a| w.max(a))
    }

    fn save_arr(&mut self, node: usize) {
        if !self.undo.active || self.undo.arr_stamp[node] == self.undo.generation {
            return;
        }
        self.undo.arr_stamp[node] = self.undo.generation;
        self.undo.saved_arr.push((node as u32, self.arr[node]));
    }

    fn save_endpoint(&mut self, node: usize) {
        if !self.undo.active || self.undo.endpoint_stamp[node] == self.undo.generation {
            return;
        }
        self.undo.endpoint_stamp[node] = self.undo.generation;
        self.undo
            .saved_endpoint
            .push((node as u32, self.endpoint_arr[node]));
    }
    /// Journals a net's current sink delays on first touch by copying them
    /// onto the end of the flat undo buffer.
    fn save_net(&mut self, net: NetId) {
        let i = net.index();
        if !self.undo.active || self.undo.net_stamp[i] == self.undo.generation {
            return;
        }
        self.undo.net_stamp[i] = self.undo.generation;
        self.undo.saved_nets.push(net);
        self.undo
            .saved_delays
            .extend_from_slice(&self.delays[self.tables.net_range(net)]);
    }

    fn save_worst(&mut self) {
        if self.undo.active && self.undo.worst.is_none() {
            self.undo.worst = Some(self.worst);
        }
    }
}

/// Deterministic corruption hooks for the resilience layer's fault-injection
/// tests. Compiled only with the `fault-inject` feature; never called by
/// production code.
#[cfg(feature = "fault-inject")]
impl TimingState {
    /// Skews the cached worst-case delay by `delta_ps` — simulates a missed
    /// frontier propagation that left the cost term `T` stale.
    pub fn fault_skew_worst(&mut self, delta_ps: f64) {
        self.worst += delta_ps;
    }

    /// Skews the arrival time of the cell with index `cell % num_cells` by
    /// `delta_ps` — a silent mid-cone divergence that a worst-only check
    /// would miss.
    pub fn fault_skew_arrival(&mut self, cell: usize, delta_ps: f64) {
        let node_of = &self.tables.node_of;
        if let Some(&node) = node_of.get(cell % node_of.len().max(1)) {
            self.arr[node as usize] += delta_ps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_netlist::{generate, GenerateConfig};
    use rowfpga_route::{route_batch, RouterConfig};

    fn problem(seed: u64) -> (Architecture, Netlist, Placement, RoutingState) {
        sized_problem(seed, 50, 6, 14)
    }

    /// A routed random layout of a `cells`-cell design on a `rows × cols`
    /// chip.
    fn sized_problem(
        seed: u64,
        cells: usize,
        rows: usize,
        cols: usize,
    ) -> (Architecture, Netlist, Placement, RoutingState) {
        let nl = generate(&GenerateConfig {
            num_cells: cells,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 4,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(rows)
            .cols(cols)
            .io_columns(2)
            .tracks_per_channel(24)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, seed).unwrap();
        let mut st = RoutingState::new(&arch, &nl);
        route_batch(&mut st, &arch, &nl, &p, &RouterConfig::default(), 8);
        (arch, nl, p, st)
    }

    /// Node numbering is internal: every cell id's arrival, through both
    /// accessors, equals a from-scratch STA to the bit, because both fold
    /// the same f64 operations in the same pin order.
    #[test]
    fn initial_state_matches_sta() {
        for (arch, nl, p, st) in [problem(3), sized_problem(5, 200, 10, 24)] {
            let ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
            let sta = crate::Sta::analyze(&arch, &nl, &p, &st).unwrap();
            assert_eq!(ts.worst().to_bits(), sta.worst_delay().to_bits());
            assert_eq!(ts.arrivals().len(), nl.num_cells());
            for ((id, _), a) in nl.cells().zip(ts.arrivals()) {
                assert_eq!(a.to_bits(), sta.arrival(id).to_bits(), "{id:?}");
                assert_eq!(ts.arrival(id).to_bits(), a.to_bits(), "{id:?}");
            }
            for (id, _) in nl.nets() {
                assert_eq!(ts.net_delays(id), sta.net_delays(id), "{id:?}");
            }
        }
    }

    #[test]
    fn incremental_update_matches_full_reanalysis() {
        let (arch, nl, p, st) = problem(5);
        assert_incremental_matches_full(arch, nl, p, st);
        // More than 128 combinational cells: the dirty sweep crosses words.
        let (arch, nl, p, st) = sized_problem(5, 200, 10, 24);
        assert!(Levels::compute(&nl).unwrap().order().len() > 128);
        assert_incremental_matches_full(arch, nl, p, st);
    }

    /// Swaps pairs of logic cells, reroutes and updates incrementally,
    /// comparing each step to the bit with a from-scratch analysis.
    fn assert_incremental_matches_full(
        arch: Architecture,
        nl: Netlist,
        mut p: Placement,
        mut st: RoutingState,
    ) {
        let cfg = RouterConfig::default();
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();

        let cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| !c.kind().is_io())
            .map(|(id, _)| id)
            .collect();
        for w in cells.windows(2).take(20) {
            // Move, rip up, reroute — then update incrementally and compare
            // against a from-scratch analysis. The changed nets are every
            // route the move touched: on a congested chip the reroute can
            // also complete nets queued by earlier moves.
            p.swap_sites(&arch, p.site_of(w[0]), p.site_of(w[1]));
            st.begin_txn();
            st.rip_up_cell(&nl, w[0]);
            st.rip_up_cell(&nl, w[1]);
            st.route_incremental(&arch, &nl, &p, &cfg);
            let changed: Vec<NetId> = st.touched_nets().to_vec();
            st.commit();
            let worst = ts.update_nets(&arch, &nl, &p, &st, &changed);

            let oracle = TimingState::new(&arch, &nl, &p, &st).unwrap();
            assert_bit_identical(&nl, &ts, &oracle);
            assert_eq!(worst.to_bits(), oracle.worst().to_bits());
        }
    }

    /// Bit equality of the worst delay, every arrival and every net delay.
    fn assert_bit_identical(nl: &Netlist, a: &TimingState, b: &TimingState) {
        assert_eq!(a.worst().to_bits(), b.worst().to_bits(), "worst delay");
        for (id, _) in nl.cells() {
            assert_eq!(
                a.arrival(id).to_bits(),
                b.arrival(id).to_bits(),
                "arrival of {id:?}"
            );
        }
        for (id, _) in nl.nets() {
            let bits = |t: &TimingState| -> Vec<u64> {
                t.net_delays(id).iter().map(|d| d.to_bits()).collect()
            };
            assert_eq!(bits(a), bits(b), "delays of {id:?}");
        }
    }

    /// The two public update steps compose to `update_nets`, also when the
    /// changed nets arrive in more than one `update_net_delays` call.
    #[test]
    fn split_steps_compose_to_update_nets() {
        let (arch, nl, mut p, mut st) = sized_problem(7, 200, 10, 24);
        let cfg = RouterConfig::default();
        let mut whole = TimingState::new(&arch, &nl, &p, &st).unwrap();
        let mut split = whole.clone();
        let cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| !c.kind().is_io())
            .map(|(id, _)| id)
            .collect();
        for w in cells.windows(2).step_by(3).take(10) {
            p.swap_sites(&arch, p.site_of(w[0]), p.site_of(w[1]));
            st.begin_txn();
            st.rip_up_cell(&nl, w[0]);
            st.rip_up_cell(&nl, w[1]);
            st.route_incremental(&arch, &nl, &p, &cfg);
            let changed: Vec<NetId> = st.touched_nets().to_vec();
            st.commit();
            let worst = whole.update_nets(&arch, &nl, &p, &st, &changed);
            let (a, b) = changed.split_at(changed.len() / 2);
            split.update_net_delays(&arch, &nl, &p, &st, a);
            split.update_net_delays(&arch, &nl, &p, &st, b);
            assert_eq!(split.propagate().to_bits(), worst.to_bits());
            assert_eq!(split.last_frontier(), whole.last_frontier());
            assert_bit_identical(&nl, &split, &whole);
            // Nothing pending: a second propagate is a no-op.
            assert_eq!(split.propagate().to_bits(), worst.to_bits());
        }
    }

    #[test]
    fn rollback_restores_timing_exactly() {
        let (arch, nl, mut p, mut st) = problem(9);
        let cfg = RouterConfig::default();
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
        let reference = ts.clone();

        let cells: Vec<CellId> = nl
            .cells()
            .filter(|(_, c)| !c.kind().is_io())
            .map(|(id, _)| id)
            .collect();
        let (a, b) = (cells[0], cells[1]);

        ts.begin_txn();
        st.begin_txn();
        p.swap_sites(&arch, p.site_of(a), p.site_of(b));
        let mut changed = nl.nets_of_cell(a).to_vec();
        changed.extend_from_slice(nl.nets_of_cell(b));
        changed.sort_unstable();
        changed.dedup();
        st.rip_up_cell(&nl, a);
        st.rip_up_cell(&nl, b);
        st.route_incremental(&arch, &nl, &p, &cfg);
        ts.update_nets(&arch, &nl, &p, &st, &changed);
        // reject
        ts.rollback();
        st.rollback();
        p.swap_sites(&arch, p.site_of(a), p.site_of(b)); // p.site_of(a) is b's old site now

        assert_bit_identical(&nl, &ts, &reference);
    }

    #[test]
    fn empty_update_is_free() {
        let (arch, nl, p, st) = problem(2);
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
        let w = ts.worst();
        assert_eq!(ts.update_nets(&arch, &nl, &p, &st, &[]), w);
        assert_eq!(ts.last_frontier(), 0);
    }

    #[test]
    #[should_panic(expected = "transaction already active")]
    fn nested_timing_transactions_are_rejected() {
        let (arch, nl, p, st) = problem(2);
        let mut ts = TimingState::new(&arch, &nl, &p, &st).unwrap();
        ts.begin_txn();
        ts.begin_txn();
    }
}
