//! Geometric routing requirements of a net under a placement.

use rowfpga_arch::Architecture;
use rowfpga_netlist::{NetId, Netlist};
use rowfpga_place::{pin_loc, Placement};

/// What a net needs from the fabric, derived from its pin locations.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetRequirements {
    /// Channels containing at least one pin, ascending, with the inclusive
    /// column span of the pins in each.
    pub pin_channels: Vec<(usize, usize, usize)>,
    /// Lowest pin channel.
    pub chan_min: usize,
    /// Highest pin channel.
    pub chan_max: usize,
    /// Leftmost pin column.
    pub col_min: usize,
    /// Rightmost pin column.
    pub col_max: usize,
}

impl NetRequirements {
    /// Whether the net needs vertical (feedthrough) resources.
    pub fn needs_vertical(&self) -> bool {
        self.chan_min != self.chan_max
    }

    /// Center column of the bounding box — the global router's preferred
    /// feedthrough column (paper §3.3).
    pub fn center_col(&self) -> usize {
        (self.col_min + self.col_max) / 2
    }

    /// Estimated length used to prioritize the unrouted-net queues: the
    /// half-perimeter with vertical hops double-weighted.
    pub fn estimated_length(&self) -> usize {
        (self.col_max - self.col_min) + 2 * (self.chan_max - self.chan_min)
    }

    /// The column span (inclusive) the net must cover in `channel`, given a
    /// feedthrough column choice: the pins' span, stretched to reach the
    /// feedthrough column when the net spans several channels.
    pub fn span_in(&self, channel: usize, vcol: Option<usize>) -> Option<(usize, usize)> {
        let &(_, lo, hi) = self.pin_channels.iter().find(|(c, _, _)| *c == channel)?;
        match vcol {
            Some(x) if self.needs_vertical() => Some((lo.min(x), hi.max(x))),
            _ => Some((lo, hi)),
        }
    }
}

/// Computes the routing requirements of `net` under `placement`.
pub fn net_requirements(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    net: NetId,
) -> NetRequirements {
    let mut req = NetRequirements::default();
    net_requirements_into(arch, netlist, placement, net, &mut req);
    req
}

/// Computes the routing requirements of `net` into an existing record,
/// reusing its `pin_channels` allocation — the hot-path form used by the
/// global router's persistent queue buffer.
pub fn net_requirements_into(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    net: NetId,
    req: &mut NetRequirements,
) {
    req.pin_channels.clear();
    let (mut col_min, mut col_max) = (usize::MAX, 0);
    for pin in netlist.net(net).pins() {
        let l = pin_loc(arch, placement, pin);
        let (c, col) = (l.channel.index(), l.col.index());
        col_min = col_min.min(col);
        col_max = col_max.max(col);
        match req.pin_channels.iter_mut().find(|(pc, _, _)| *pc == c) {
            Some((_, lo, hi)) => {
                *lo = (*lo).min(col);
                *hi = (*hi).max(col);
            }
            None => req.pin_channels.push((c, col, col)),
        }
    }
    debug_assert!(!req.pin_channels.is_empty());
    req.pin_channels.sort_unstable();
    req.chan_min = req.pin_channels.first().map(|x| x.0).unwrap_or(0);
    req.chan_max = req.pin_channels.last().map(|x| x.0).unwrap_or(0);
    req.col_min = col_min;
    req.col_max = col_max;
}

/// The bounding box of a net's pins: `(chan_min, chan_max, col_min,
/// col_max)`, allocation-free. The delay estimator needs only the extents,
/// not the per-channel spans.
pub fn net_extents(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    net: NetId,
) -> (usize, usize, usize, usize) {
    let (mut chan_min, mut chan_max) = (usize::MAX, 0);
    let (mut col_min, mut col_max) = (usize::MAX, 0);
    for pin in netlist.net(net).pins() {
        let l = pin_loc(arch, placement, pin);
        chan_min = chan_min.min(l.channel.index());
        chan_max = chan_max.max(l.channel.index());
        col_min = col_min.min(l.col.index());
        col_max = col_max.max(l.col.index());
    }
    debug_assert!(chan_min != usize::MAX, "net has pins");
    (chan_min, chan_max, col_min, col_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_netlist::{CellKind, Netlist};
    use rowfpga_place::net_pin_locs;

    fn setup() -> (Architecture, Netlist, Placement) {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(1));
        let q = b.add_cell("q", CellKind::Output);
        b.connect("na", a, [(g, 1)]).unwrap();
        b.connect("ng", g, [(q, 0)]).unwrap();
        let nl = b.build().unwrap();
        let arch = Architecture::builder()
            .rows(4)
            .cols(10)
            .io_columns(1)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 9).unwrap();
        (arch, nl, p)
    }

    #[test]
    fn requirements_cover_all_pins() {
        let (arch, nl, p) = setup();
        for (id, _) in nl.nets() {
            let req = net_requirements(&arch, &nl, &p, id);
            let locs = net_pin_locs(&arch, &nl, &p, id);
            for l in &locs {
                let c = l.channel.index();
                assert!(req.chan_min <= c && c <= req.chan_max);
                let (_, lo, hi) = *req
                    .pin_channels
                    .iter()
                    .find(|(pc, _, _)| *pc == c)
                    .expect("pin channel listed");
                assert!(lo <= l.col.index() && l.col.index() <= hi);
            }
            assert!(req.center_col() >= req.col_min && req.center_col() <= req.col_max);
        }
    }

    #[test]
    fn span_stretches_to_feedthrough_column() {
        let req = NetRequirements {
            pin_channels: vec![(0, 2, 4), (3, 7, 7)],
            chan_min: 0,
            chan_max: 3,
            col_min: 2,
            col_max: 7,
        };
        assert!(req.needs_vertical());
        assert_eq!(req.span_in(0, Some(5)), Some((2, 5)));
        assert_eq!(req.span_in(3, Some(5)), Some((5, 7)));
        assert_eq!(req.span_in(1, Some(5)), None, "no pins in channel 1");
        // inside the pin span: no stretch
        assert_eq!(req.span_in(0, Some(3)), Some((2, 4)));
    }

    #[test]
    fn single_channel_net_needs_no_vertical() {
        let req = NetRequirements {
            pin_channels: vec![(2, 1, 6)],
            chan_min: 2,
            chan_max: 2,
            col_min: 1,
            col_max: 6,
        };
        assert!(!req.needs_vertical());
        assert_eq!(req.span_in(2, None), Some((1, 6)));
        assert_eq!(req.estimated_length(), 5);
    }

    #[test]
    fn estimated_length_weights_vertical_hops() {
        let wide = NetRequirements {
            pin_channels: vec![(0, 0, 6)],
            chan_min: 0,
            chan_max: 0,
            col_min: 0,
            col_max: 6,
        };
        let tall = NetRequirements {
            pin_channels: vec![(0, 3, 3), (3, 3, 3)],
            chan_min: 0,
            chan_max: 3,
            col_min: 3,
            col_max: 3,
        };
        assert_eq!(wide.estimated_length(), 6);
        assert_eq!(tall.estimated_length(), 6);
    }
}
