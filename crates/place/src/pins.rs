//! Physical pin locations.
//!
//! A pin's physical location is determined by its cell's site and pinmap: it
//! lands in the cell's column, in the channel above the row (top-side port)
//! or below it (bottom-side port). Routing and timing consume nothing about
//! a net's pins beyond this `(column, channel)` pair.
//!
//! The side comes from the placement's flat pin-side table (a per-cell CSR
//! slice holding the current pinmap's sides), so a lookup is two array
//! reads rather than a palette search; [`Placement::set_pinmap`] keeps the
//! table in step with the pinmap choice.

use rowfpga_arch::{Architecture, ChannelId, ColId};
use rowfpga_netlist::{NetId, Netlist, PinRef, PortSide};

use crate::placement::Placement;

/// Where a pin physically attaches to the routing fabric.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PinLoc {
    /// Column of the cell's site.
    pub col: ColId,
    /// Channel the pin's port faces.
    pub channel: ChannelId,
}

/// Computes the physical location of `pin` under the current placement and
/// pinmap.
///
/// # Panics
///
/// Panics if `pin.cell` is out of range. `pin.pin` must be in range for
/// its cell, as every [`PinRef`] the netlist hands out is.
pub fn pin_loc(arch: &Architecture, placement: &Placement, pin: PinRef) -> PinLoc {
    let site = arch.geometry().site(placement.site_of(pin.cell));
    let channel = match placement.pin_side(pin) {
        PortSide::Top => site.channel_above(),
        PortSide::Bottom => site.channel_below(),
    };
    PinLoc {
        col: site.col(),
        channel,
    }
}

/// The locations of all pins of `net`, driver first.
pub fn net_pin_locs(
    arch: &Architecture,
    netlist: &Netlist,
    placement: &Placement,
    net: NetId,
) -> Vec<PinLoc> {
    netlist
        .net(net)
        .pins()
        .map(|p| pin_loc(arch, placement, p))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rowfpga_arch::SiteKind;
    use rowfpga_netlist::{CellId, CellKind, Netlist};

    fn setup() -> (Architecture, Netlist, Placement) {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(2));
        let h = b.add_cell("h", CellKind::comb(1));
        let q = b.add_cell("q", CellKind::Output);
        b.connect("na", a, [(g, 1), (g, 2)]).unwrap();
        b.connect("ng", g, [(h, 1)]).unwrap();
        b.connect("nh", h, [(q, 0)]).unwrap();
        let nl = b.build().unwrap();
        let arch = Architecture::builder()
            .rows(3)
            .cols(8)
            .io_columns(1)
            .build()
            .unwrap();
        let p = Placement::random(&arch, &nl, 5).unwrap();
        (arch, nl, p)
    }

    #[test]
    fn pin_channel_tracks_site_row_and_side() {
        let (arch, nl, p) = setup();
        let g = nl.cell_by_name("g").unwrap();
        let site = arch.geometry().site(p.site_of(g));
        for pin in 0..nl.cell(g).kind().num_pins() as u8 {
            let loc = pin_loc(&arch, &p, PinRef::new(g, pin));
            assert_eq!(loc.col, site.col());
            let side = p.pinmap(&nl, g).pin_side(pin);
            let expected = match side {
                PortSide::Top => site.channel_above(),
                PortSide::Bottom => site.channel_below(),
            };
            assert_eq!(loc.channel, expected);
        }
    }

    #[test]
    fn pinmap_change_flips_the_channel() {
        let (arch, nl, mut p) = setup();
        let g = nl.cell_by_name("g").unwrap();
        let before = pin_loc(&arch, &p, PinRef::new(g, 0));
        // find a palette entry whose output side differs from index 0
        let kind = nl.cell(g).kind();
        let cur_side = p.palette(kind)[0].pin_side(0);
        let flipped = p
            .palette(kind)
            .iter()
            .position(|pm| pm.pin_side(0) != cur_side)
            .expect("palette has both output sides") as u16;
        p.set_pinmap(&nl, g, flipped);
        let after = pin_loc(&arch, &p, PinRef::new(g, 0));
        assert_eq!(before.col, after.col);
        assert_ne!(before.channel, after.channel);
        let diff = before.channel.index().abs_diff(after.channel.index());
        assert_eq!(diff, 1);
    }

    /// The location the palette lookup gives: the cell's current pinmap
    /// entry, read through the palette instead of the pin-side table.
    fn palette_loc(arch: &Architecture, nl: &Netlist, p: &Placement, pin: PinRef) -> PinLoc {
        let site = arch.geometry().site(p.site_of(pin.cell));
        let channel = match p.pinmap(nl, pin.cell).pin_side(pin.pin) {
            PortSide::Top => site.channel_above(),
            PortSide::Bottom => site.channel_below(),
        };
        PinLoc {
            col: site.col(),
            channel,
        }
    }

    fn assert_every_pin_matches_palette(arch: &Architecture, nl: &Netlist, p: &Placement) {
        for (id, cell) in nl.cells() {
            for pin in 0..cell.kind().num_pins() as u8 {
                let r = PinRef::new(id, pin);
                assert_eq!(pin_loc(arch, p, r), palette_loc(arch, nl, p, r), "{r:?}");
            }
        }
    }

    #[test]
    fn pin_side_table_matches_palette_under_random_edits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rowfpga_arch::SiteId;
        use rowfpga_netlist::{generate, GenerateConfig};

        let nl = generate(&GenerateConfig {
            num_cells: 60,
            num_inputs: 6,
            num_outputs: 6,
            num_seq: 4,
            ..GenerateConfig::default()
        });
        let arch = Architecture::builder()
            .rows(6)
            .cols(14)
            .io_columns(2)
            .build()
            .unwrap();
        let mut p = Placement::random(&arch, &nl, 11).unwrap();
        assert_every_pin_matches_palette(&arch, &nl, &p);
        let mut rng = StdRng::seed_from_u64(3);
        let sites = arch.geometry().num_sites();
        for step in 0..400 {
            if rng.gen_bool(0.5) {
                let (a, b) = (rng.gen_range(0..sites), rng.gen_range(0..sites));
                let (a, b) = (SiteId::new(a), SiteId::new(b));
                let geom = arch.geometry();
                if geom.site(a).kind() == geom.site(b).kind() {
                    p.swap_sites(&arch, a, b);
                }
            } else {
                let cell = CellId::new(rng.gen_range(0..nl.num_cells()));
                let len = p.palette(nl.cell(cell).kind()).len();
                p.set_pinmap(&nl, cell, rng.gen_range(0..len) as u16);
            }
            assert_every_pin_matches_palette(&arch, &nl, &p);
            if step % 50 == 0 {
                p = Placement::from_parts(&arch, &nl, &p.export_sites(), &p.export_pinmaps())
                    .unwrap();
                assert_every_pin_matches_palette(&arch, &nl, &p);
            }
        }
        assert!(p.check_invariants(&arch, &nl));
    }

    #[test]
    fn net_pin_locs_lists_driver_first() {
        let (arch, nl, p) = setup();
        let na = nl.net_by_name("na").unwrap();
        let locs = net_pin_locs(&arch, &nl, &p, na);
        assert_eq!(locs.len(), 3);
        let a = nl.cell_by_name("a").unwrap();
        let a_site = arch.geometry().site(p.site_of(a));
        assert_eq!(locs[0].col, a_site.col());
        assert_eq!(a_site.kind(), SiteKind::Io);
    }
}
