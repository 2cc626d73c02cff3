//! The netlist container and its builder.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::cell::{Cell, CellKind};
use crate::ids::{CellId, NetId, PinIndex, PinRef};

/// A signal: one driving pin and one or more sink pins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Net {
    name: String,
    driver: PinRef,
    sinks: Vec<PinRef>,
}

impl Net {
    /// The net's (unique) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pin driving the net.
    pub fn driver(&self) -> PinRef {
        self.driver
    }

    /// The pins the net fans out to.
    pub fn sinks(&self) -> &[PinRef] {
        &self.sinks
    }

    /// Number of sink pins.
    pub fn fanout(&self) -> usize {
        self.sinks.len()
    }

    /// Iterates over all pins on the net (driver first).
    pub fn pins(&self) -> impl Iterator<Item = PinRef> + '_ {
        std::iter::once(self.driver).chain(self.sinks.iter().copied())
    }

    /// Number of distinct cells touched by the net.
    pub fn num_cells(&self) -> usize {
        let mut cells: Vec<CellId> = self.pins().map(|p| p.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        cells.len()
    }
}

/// Errors raised while building a [`Netlist`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildNetlistError {
    /// Two cells share a name.
    DuplicateCellName(String),
    /// Two nets share a name.
    DuplicateNetName(String),
    /// The named driver cell has no output pin (it is a primary output).
    DriverHasNoOutput(String),
    /// The driver's output already drives another net.
    DriverAlreadyConnected(String),
    /// A sink pin index is out of range for its cell.
    PinOutOfRange {
        /// The offending cell's name.
        cell: String,
        /// The requested pin index.
        pin: PinIndex,
    },
    /// The referenced sink pin is an output pin, not an input.
    SinkIsOutput {
        /// The offending cell's name.
        cell: String,
    },
    /// The sink pin is already connected to another net.
    SinkAlreadyConnected {
        /// The offending cell's name.
        cell: String,
        /// The pin index.
        pin: PinIndex,
    },
    /// A net was declared with no sinks.
    EmptyNet(String),
    /// After all connections, an input pin remains unconnected.
    UnconnectedInput {
        /// The offending cell's name.
        cell: String,
        /// The unconnected pin index.
        pin: PinIndex,
    },
}

impl fmt::Display for BuildNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildNetlistError::DuplicateCellName(n) => write!(f, "duplicate cell name `{n}`"),
            BuildNetlistError::DuplicateNetName(n) => write!(f, "duplicate net name `{n}`"),
            BuildNetlistError::DriverHasNoOutput(n) => {
                write!(f, "cell `{n}` is a primary output and cannot drive a net")
            }
            BuildNetlistError::DriverAlreadyConnected(n) => {
                write!(f, "output of cell `{n}` already drives a net")
            }
            BuildNetlistError::PinOutOfRange { cell, pin } => {
                write!(f, "pin {pin} is out of range for cell `{cell}`")
            }
            BuildNetlistError::SinkIsOutput { cell } => {
                write!(f, "sink pin on cell `{cell}` is its output pin")
            }
            BuildNetlistError::SinkAlreadyConnected { cell, pin } => {
                write!(f, "pin {pin} of cell `{cell}` is already connected")
            }
            BuildNetlistError::EmptyNet(n) => write!(f, "net `{n}` has no sinks"),
            BuildNetlistError::UnconnectedInput { cell, pin } => {
                write!(f, "input pin {pin} of cell `{cell}` is unconnected")
            }
        }
    }
}

impl Error for BuildNetlistError {}

/// Builder for [`Netlist`]: add cells, then connect them with nets.
#[derive(Clone, Debug, Default)]
pub struct NetlistBuilder {
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pin_nets: Vec<Vec<Option<NetId>>>,
    cell_names: BTreeMap<String, CellId>,
    net_names: BTreeMap<String, NetId>,
    error: Option<BuildNetlistError>,
}

impl NetlistBuilder {
    /// Adds a cell and returns its id.
    ///
    /// A duplicate name is recorded as a deferred error reported by
    /// [`NetlistBuilder::build`]; the cell is still created so that id
    /// arithmetic in caller loops stays simple.
    pub fn add_cell(&mut self, name: impl Into<String>, kind: CellKind) -> CellId {
        let name = name.into();
        let id = CellId::new(self.cells.len());
        if self.cell_names.insert(name.clone(), id).is_some() && self.error.is_none() {
            self.error = Some(BuildNetlistError::DuplicateCellName(name.clone()));
        }
        self.pin_nets.push(vec![None; kind.num_pins()]);
        self.cells.push(Cell::new(name, kind));
        id
    }

    /// Connects the output of `driver` to the given `(cell, pin)` sinks as a
    /// new net.
    ///
    /// Pin indices are absolute: for signal-driving cells, inputs are pins
    /// `1..`; for primary-output cells the single input is pin `0`.
    ///
    /// # Errors
    ///
    /// Returns an error if the driver cannot drive, any pin reference is
    /// invalid or already connected, or the sink list is empty.
    pub fn connect(
        &mut self,
        name: impl Into<String>,
        driver: CellId,
        sinks: impl IntoIterator<Item = (CellId, PinIndex)>,
    ) -> Result<NetId, BuildNetlistError> {
        let name = name.into();
        if self.net_names.contains_key(&name) {
            return Err(BuildNetlistError::DuplicateNetName(name));
        }
        let driver_cell = &self.cells[driver.index()];
        if !driver_cell.kind().has_output() {
            return Err(BuildNetlistError::DriverHasNoOutput(
                driver_cell.name().to_owned(),
            ));
        }
        if self.pin_nets[driver.index()][0].is_some() {
            return Err(BuildNetlistError::DriverAlreadyConnected(
                driver_cell.name().to_owned(),
            ));
        }

        let mut sink_refs = Vec::new();
        for (cell, pin) in sinks {
            let c = &self.cells[cell.index()];
            let kind = c.kind();
            if (pin as usize) >= kind.num_pins() {
                return Err(BuildNetlistError::PinOutOfRange {
                    cell: c.name().to_owned(),
                    pin,
                });
            }
            let is_input_pin = if kind.has_output() {
                pin >= 1
            } else {
                pin == 0
            };
            if !is_input_pin {
                return Err(BuildNetlistError::SinkIsOutput {
                    cell: c.name().to_owned(),
                });
            }
            if self.pin_nets[cell.index()][pin as usize].is_some()
                || sink_refs.contains(&PinRef::new(cell, pin))
            {
                return Err(BuildNetlistError::SinkAlreadyConnected {
                    cell: c.name().to_owned(),
                    pin,
                });
            }
            sink_refs.push(PinRef::new(cell, pin));
        }
        if sink_refs.is_empty() {
            return Err(BuildNetlistError::EmptyNet(name));
        }

        let id = NetId::new(self.nets.len());
        self.pin_nets[driver.index()][0] = Some(id);
        for s in &sink_refs {
            self.pin_nets[s.cell.index()][s.pin as usize] = Some(id);
        }
        self.net_names.insert(name.clone(), id);
        self.nets.push(Net {
            name,
            driver: PinRef::new(driver, 0),
            sinks: sink_refs,
        });
        Ok(id)
    }

    /// Next unconnected input pin of `cell`, if any. Useful for generators
    /// that fill fan-in incrementally.
    pub fn free_input_pin(&self, cell: CellId) -> Option<PinIndex> {
        let kind = self.cells[cell.index()].kind();
        let first_input = usize::from(kind.has_output());
        (first_input..kind.num_pins())
            .find(|&p| self.pin_nets[cell.index()][p].is_none())
            .map(|p| p as PinIndex)
    }

    /// Whether the output pin of `cell` already drives a net.
    pub fn output_connected(&self, cell: CellId) -> bool {
        self.cells[cell.index()].kind().has_output() && self.pin_nets[cell.index()][0].is_some()
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Kind of an already-added cell.
    pub fn cell_kind(&self, cell: CellId) -> CellKind {
        self.cells[cell.index()].kind()
    }

    /// Validates the design and produces the immutable [`Netlist`].
    ///
    /// # Errors
    ///
    /// Reports any deferred duplicate-name error, or an
    /// [`BuildNetlistError::UnconnectedInput`] if an input pin was left
    /// dangling.
    pub fn build(self) -> Result<Netlist, BuildNetlistError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        for (ci, cell) in self.cells.iter().enumerate() {
            let kind = cell.kind();
            let first_input = usize::from(kind.has_output());
            for p in first_input..kind.num_pins() {
                if self.pin_nets[ci][p].is_none() {
                    return Err(BuildNetlistError::UnconnectedInput {
                        cell: cell.name().to_owned(),
                        pin: p as PinIndex,
                    });
                }
            }
        }
        // Per-cell distinct nets in ascending id order, flattened once so
        // `nets_of_cell` is a slice view rather than a sort per call.
        let mut cell_nets_start = Vec::with_capacity(self.cells.len() + 1);
        let mut cell_nets = Vec::new();
        let mut nets = Vec::new();
        for pins in &self.pin_nets {
            cell_nets_start.push(cell_nets.len() as u32);
            nets.clear();
            nets.extend(pins.iter().flatten().copied());
            nets.sort_unstable();
            nets.dedup();
            cell_nets.extend_from_slice(&nets);
        }
        cell_nets_start.push(cell_nets.len() as u32);
        Ok(Netlist {
            cells: self.cells,
            nets: self.nets,
            pin_nets: self.pin_nets,
            cell_nets_start,
            cell_nets,
            cell_names: self.cell_names,
            net_names: self.net_names,
        })
    }
}

/// An immutable technology-mapped design: cells plus the nets connecting
/// them.
#[derive(Clone, Debug)]
pub struct Netlist {
    cells: Vec<Cell>,
    nets: Vec<Net>,
    pin_nets: Vec<Vec<Option<NetId>>>,
    /// CSR offsets into `cell_nets`, one slice per cell.
    cell_nets_start: Vec<u32>,
    /// Each cell's distinct nets, ascending.
    cell_nets: Vec<NetId>,
    cell_names: BTreeMap<String, CellId>,
    net_names: BTreeMap<String, NetId>,
}

impl Netlist {
    /// Starts building a netlist.
    pub fn builder() -> NetlistBuilder {
        NetlistBuilder::default()
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Looks up a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks up a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Finds a cell by name.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.cell_names.get(name).copied()
    }

    /// Finds a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Iterates over `(id, cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::new(i), c))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> + '_ {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::new(i), n))
    }

    /// The net connected to `pin`, if any (an unconnected pin can only be a
    /// primary input's unused output).
    pub fn net_of(&self, pin: PinRef) -> Option<NetId> {
        self.pin_nets[pin.cell.index()][pin.pin as usize]
    }

    /// The net driven by `cell`'s output, if any.
    pub fn driven_net(&self, cell: CellId) -> Option<NetId> {
        if self.cells[cell.index()].kind().has_output() {
            self.pin_nets[cell.index()][0]
        } else {
            None
        }
    }

    /// The distinct nets touching any pin of `cell`, in ascending id order.
    pub fn nets_of_cell(&self, cell: CellId) -> &[NetId] {
        let i = cell.index();
        &self.cell_nets[self.cell_nets_start[i] as usize..self.cell_nets_start[i + 1] as usize]
    }

    /// Summary statistics of the design.
    pub fn stats(&self) -> NetlistStats {
        let mut by_kind = [0usize; 4];
        for c in &self.cells {
            let k = match c.kind() {
                CellKind::Input => 0,
                CellKind::Output => 1,
                CellKind::Comb { .. } => 2,
                CellKind::Seq => 3,
            };
            by_kind[k] += 1;
        }
        let total_fanout: usize = self.nets.iter().map(Net::fanout).sum();
        NetlistStats {
            num_cells: self.cells.len(),
            num_inputs: by_kind[0],
            num_outputs: by_kind[1],
            num_comb: by_kind[2],
            num_seq: by_kind[3],
            num_nets: self.nets.len(),
            num_pins: total_fanout + self.nets.len(),
            avg_fanout: if self.nets.is_empty() {
                0.0
            } else {
                total_fanout as f64 / self.nets.len() as f64
            },
            max_fanout: self.nets.iter().map(Net::fanout).max().unwrap_or(0),
        }
    }
}

/// Aggregate statistics of a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetlistStats {
    /// Total cells.
    pub num_cells: usize,
    /// Primary-input cells.
    pub num_inputs: usize,
    /// Primary-output cells.
    pub num_outputs: usize,
    /// Combinational cells.
    pub num_comb: usize,
    /// Sequential cells.
    pub num_seq: usize,
    /// Nets.
    pub num_nets: usize,
    /// Connected pins (drivers plus sinks).
    pub num_pins: usize,
    /// Mean sinks per net.
    pub avg_fanout: f64,
    /// Largest sink count of any net.
    pub max_fanout: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let ff = b.add_cell("ff", CellKind::Seq);
        let g = b.add_cell("g", CellKind::comb(2));
        let q = b.add_cell("q", CellKind::Output);
        b.connect("na", a, [(g, 1)]).unwrap();
        b.connect("nff", ff, [(g, 2)]).unwrap();
        b.connect("ng", g, [(q, 0), (ff, 1)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let nl = tiny();
        assert_eq!(nl.num_cells(), 4);
        assert_eq!(nl.num_nets(), 3);
        let g = nl.cell_by_name("g").unwrap();
        assert_eq!(nl.cell(g).kind(), CellKind::comb(2));
        let ng = nl.net_by_name("ng").unwrap();
        assert_eq!(nl.net(ng).fanout(), 2);
        assert_eq!(nl.net(ng).driver().cell, g);
        assert_eq!(nl.driven_net(g), Some(ng));
        assert_eq!(nl.net_of(PinRef::new(g, 1)), nl.net_by_name("na"));
    }

    #[test]
    fn nets_of_cell_are_distinct_and_sorted() {
        let nl = tiny();
        let g = nl.cell_by_name("g").unwrap();
        let nets = nl.nets_of_cell(g);
        assert_eq!(nets.len(), 3);
        assert!(nets.windows(2).all(|w| w[0] < w[1]));
        let ff = nl.cell_by_name("ff").unwrap();
        assert_eq!(nl.nets_of_cell(ff).len(), 2);
    }

    #[test]
    fn nets_of_cell_lists_each_net_once_even_on_two_pins() {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(2));
        let q = b.add_cell("q", CellKind::Output);
        let na = b.connect("na", a, [(g, 1), (g, 2)]).unwrap();
        let ng = b.connect("ng", g, [(q, 0)]).unwrap();
        let nl = b.build().unwrap();
        assert_eq!(nl.nets_of_cell(g), &[na, ng]);
        assert_eq!(nl.nets_of_cell(a), &[na]);
        assert_eq!(nl.nets_of_cell(q), &[ng]);
    }

    #[test]
    fn stats_count_kinds_and_fanout() {
        let s = tiny().stats();
        assert_eq!(s.num_inputs, 1);
        assert_eq!(s.num_outputs, 1);
        assert_eq!(s.num_comb, 1);
        assert_eq!(s.num_seq, 1);
        assert_eq!(s.num_pins, 3 + 4);
        assert_eq!(s.max_fanout, 2);
        assert!((s.avg_fanout - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_double_driving() {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(2));
        b.connect("n1", a, [(g, 1)]).unwrap();
        assert_eq!(
            b.connect("n2", a, [(g, 2)]).unwrap_err(),
            BuildNetlistError::DriverAlreadyConnected("a".into())
        );
    }

    #[test]
    fn rejects_output_cell_as_driver() {
        let mut b = Netlist::builder();
        let q = b.add_cell("q", CellKind::Output);
        let g = b.add_cell("g", CellKind::comb(1));
        assert_eq!(
            b.connect("n", q, [(g, 1)]).unwrap_err(),
            BuildNetlistError::DriverHasNoOutput("q".into())
        );
    }

    #[test]
    fn rejects_bad_sink_pins() {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(2));
        assert!(matches!(
            b.connect("n1", a, [(g, 9)]).unwrap_err(),
            BuildNetlistError::PinOutOfRange { .. }
        ));
        assert!(matches!(
            b.connect("n2", a, [(g, 0)]).unwrap_err(),
            BuildNetlistError::SinkIsOutput { .. }
        ));
        assert!(matches!(
            b.connect("n3", a, [(g, 1), (g, 1)]).unwrap_err(),
            BuildNetlistError::SinkAlreadyConnected { .. }
        ));
        assert!(matches!(
            b.connect("n4", a, []).unwrap_err(),
            BuildNetlistError::EmptyNet(_)
        ));
    }

    #[test]
    fn rejects_unconnected_inputs_at_build() {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(2));
        b.connect("n1", a, [(g, 1)]).unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildNetlistError::UnconnectedInput { pin: 2, .. }
        ));
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut b = Netlist::builder();
        b.add_cell("x", CellKind::Input);
        b.add_cell("x", CellKind::Input);
        assert!(matches!(
            b.build().unwrap_err(),
            BuildNetlistError::DuplicateCellName(_)
        ));

        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let c = b.add_cell("c", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(2));
        b.connect("n", a, [(g, 1)]).unwrap();
        assert!(matches!(
            b.connect("n", c, [(g, 2)]).unwrap_err(),
            BuildNetlistError::DuplicateNetName(_)
        ));
    }

    #[test]
    fn free_input_pin_walks_the_inputs() {
        let mut b = Netlist::builder();
        let a = b.add_cell("a", CellKind::Input);
        let g = b.add_cell("g", CellKind::comb(3));
        assert_eq!(b.free_input_pin(g), Some(1));
        b.connect("n1", a, [(g, 1)]).unwrap();
        assert_eq!(b.free_input_pin(g), Some(2));
        assert_eq!(b.free_input_pin(a), None);
        assert!(!b.output_connected(g));
        assert!(b.output_connected(a));
    }
}
