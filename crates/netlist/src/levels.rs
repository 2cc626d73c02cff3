//! Levelization of a netlist for ordered delay propagation.
//!
//! Critical paths are bounded by primary inputs, primary outputs and
//! sequential blocks (paper §3.5). Boundary cells have level 0; every other
//! (combinational) cell's level is one more than the maximum level of the
//! cells driving its inputs. Levels depend only on connectivity, never on
//! placement, so they are computed once and reused by every incremental
//! delay update.

use std::error::Error;
use std::fmt;

use crate::ids::{CellId, NetId};
use crate::netlist::Netlist;

/// Error: the design contains a purely combinational cycle (a loop not
/// broken by any sequential cell), which makes levelization — and static
/// timing — undefined.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CombLoopError {
    /// Cells involved in (or downstream of) the combinational loop.
    pub cells: Vec<CellId>,
}

impl fmt::Display for CombLoopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "combinational loop involving {} cell(s)",
            self.cells.len()
        )
    }
}

impl Error for CombLoopError {}

/// The level assignment of every cell plus a propagation order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Levels {
    levels: Vec<u32>,
    order: Vec<CellId>,
    max_level: u32,
}

impl Levels {
    /// Computes levels for a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`CombLoopError`] if the combinational cells contain a cycle.
    pub fn compute(netlist: &Netlist) -> Result<Levels, CombLoopError> {
        let n = netlist.num_cells();
        let mut levels = vec![0u32; n];
        // Count, for each combinational cell, how many of its input drivers
        // are combinational cells (only those constrain the ordering; the
        // boundary cells are fixed at level 0).
        let mut pending = vec![0u32; n];
        let mut is_comb = vec![false; n];
        for (id, cell) in netlist.cells() {
            is_comb[id.index()] = !cell.kind().is_boundary();
        }
        for (_, net) in netlist.nets() {
            let d = net.driver().cell;
            if !is_comb[d.index()] {
                continue;
            }
            for s in net.sinks() {
                if is_comb[s.cell.index()] {
                    pending[s.cell.index()] += 1;
                }
            }
        }

        let mut ready: Vec<CellId> = (0..n)
            .filter(|&i| is_comb[i] && pending[i] == 0)
            .map(CellId::new)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut processed = 0usize;
        let total_comb = is_comb.iter().filter(|b| **b).count();

        while let Some(cell) = ready.pop() {
            // Level: one more than the max level over all drivers of this
            // cell's inputs (boundary drivers sit at level 0).
            let mut lvl = 0u32;
            for &nid in netlist.nets_of_cell(cell) {
                let net = netlist.net(nid);
                if net.driver().cell != cell {
                    lvl = lvl.max(levels[net.driver().cell.index()]);
                }
            }
            levels[cell.index()] = lvl + 1;
            order.push(cell);
            processed += 1;

            if let Some(driven) = netlist.driven_net(cell) {
                for s in netlist.net(driven).sinks() {
                    if is_comb[s.cell.index()] {
                        pending[s.cell.index()] -= 1;
                        if pending[s.cell.index()] == 0 {
                            ready.push(s.cell);
                        }
                    }
                }
            }
        }

        if processed != total_comb {
            let cells = (0..n)
                .filter(|&i| is_comb[i] && pending[i] > 0)
                .map(CellId::new)
                .collect();
            return Err(CombLoopError { cells });
        }

        let max_level = levels.iter().copied().max().unwrap_or(0);
        Ok(Levels {
            levels,
            order,
            max_level,
        })
    }

    /// The level of a cell (0 for boundary cells).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn level(&self, cell: CellId) -> u32 {
        self.levels[cell.index()]
    }

    /// Combinational cells in a valid forward-propagation order
    /// (non-decreasing in level along every net).
    pub fn order(&self) -> &[CellId] {
        &self.order
    }

    /// The deepest level in the design (its logic depth).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Checks that `net`'s sinks never precede its driver in level order —
    /// a structural invariant used by the incremental timing engine.
    pub fn net_is_forward(&self, netlist: &Netlist, net: NetId) -> bool {
        let n = netlist.net(net);
        let d = n.driver().cell;
        if netlist.cell(d).kind().is_boundary() {
            return true;
        }
        n.sinks().iter().all(|s| {
            netlist.cell(s.cell).kind().is_boundary()
                || self.levels[s.cell.index()] > self.levels[d.index()]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    fn chain(depth: usize) -> Netlist {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let mut prev = a;
        for i in 0..depth {
            let g = b.add_cell(format!("g{i}"), CellKind::comb(1));
            b.connect(format!("n{i}"), prev, [(g, 1)]).unwrap();
            prev = g;
        }
        let q = b.add_cell("q", CellKind::Output);
        b.connect("nq", prev, [(q, 0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn chain_levels_increase_by_one() {
        let nl = chain(4);
        let lv = Levels::compute(&nl).unwrap();
        assert_eq!(lv.max_level(), 4);
        for i in 0..4 {
            let c = nl.cell_by_name(&format!("g{i}")).unwrap();
            assert_eq!(lv.level(c), i as u32 + 1);
        }
        assert_eq!(lv.level(nl.cell_by_name("a").unwrap()), 0);
        assert_eq!(lv.level(nl.cell_by_name("q").unwrap()), 0);
    }

    #[test]
    fn order_respects_levels() {
        let nl = chain(6);
        let lv = Levels::compute(&nl).unwrap();
        assert_eq!(lv.order().len(), 6);
        for w in lv.order().windows(2) {
            assert!(lv.level(w[0]) <= lv.level(w[1]) + 5); // order is one valid topo order
        }
        // stronger: every net is forward
        for (nid, _) in nl.nets() {
            assert!(lv.net_is_forward(&nl, nid));
        }
    }

    #[test]
    fn sequential_cells_break_cycles() {
        // g -> ff -> g is legal: the loop passes through a flip-flop.
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(2));
        let ff = b.add_cell("ff", CellKind::Seq);
        b.connect("na", a, [(g, 1)]).unwrap();
        b.connect("ng", g, [(ff, 1)]).unwrap();
        b.connect("nf", ff, [(g, 2)]).unwrap();
        let nl = b.build().unwrap();
        let lv = Levels::compute(&nl).unwrap();
        assert_eq!(lv.level(ff), 0);
        assert_eq!(lv.level(g), 1);
    }

    #[test]
    fn combinational_loop_is_rejected() {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g1 = b.add_cell("g1", CellKind::comb(2));
        let g2 = b.add_cell("g2", CellKind::comb(1));
        b.connect("na", a, [(g1, 1)]).unwrap();
        b.connect("n1", g1, [(g2, 1)]).unwrap();
        b.connect("n2", g2, [(g1, 2)]).unwrap();
        let nl = b.build().unwrap();
        let err = Levels::compute(&nl).unwrap_err();
        assert_eq!(err.cells.len(), 2);
    }

    #[test]
    fn reconvergent_fanout_takes_max() {
        // a -> g1 -> g3; a -> g3 directly: level(g3) = 2.
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g1 = b.add_cell("g1", CellKind::comb(1));
        let g3 = b.add_cell("g3", CellKind::comb(2));
        let q = b.add_cell("q", CellKind::Output);
        b.connect("na", a, [(g1, 1), (g3, 1)]).unwrap();
        b.connect("n1", g1, [(g3, 2)]).unwrap();
        b.connect("n3", g3, [(q, 0)]).unwrap();
        let nl = b.build().unwrap();
        let lv = Levels::compute(&nl).unwrap();
        assert_eq!(lv.level(g3), 2);
    }
}
