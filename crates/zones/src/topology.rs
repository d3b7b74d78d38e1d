//! The zonal-BC interface graph: which blocks exchange boundary data.

/// An undirected interface graph over `blocks` zone blocks.
///
/// Interfaces are stored with endpoints ordered `a < b` and kept in the
/// order given at construction — that order *is* the canonical exchange
/// order the scheduler preserves for conflicting interfaces, matching
/// the sequential sweep (`inject(0→1)`, `inject(1→2)`, …) the solver
/// has always used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    blocks: usize,
    interfaces: Vec<(usize, usize)>,
}

impl Topology {
    /// Build a topology, validating every interface.
    ///
    /// # Errors
    /// Rejects an empty block set, an interface with `a >= b` (self
    /// loops and unordered endpoints), an endpoint out of range, and
    /// duplicate interfaces.
    pub fn new(blocks: usize, interfaces: Vec<(usize, usize)>) -> Result<Self, String> {
        if blocks == 0 {
            return Err("topology needs at least one block".to_string());
        }
        for (i, &(a, b)) in interfaces.iter().enumerate() {
            if a >= b {
                return Err(format!(
                    "interface {i} endpoints must satisfy a < b, got ({a},{b})"
                ));
            }
            if b >= blocks {
                return Err(format!(
                    "interface {i} endpoint {b} out of range for {blocks} blocks"
                ));
            }
            if interfaces[..i].contains(&(a, b)) {
                return Err(format!("duplicate interface ({a},{b})"));
            }
        }
        Ok(Self { blocks, interfaces })
    }

    /// A J-chained topology: block `i` exchanges with block `i + 1`,
    /// the shape `mesh::MultiZoneGrid::split_j`-style grids produce.
    ///
    /// # Panics
    /// Panics if `blocks == 0`.
    #[must_use]
    pub fn chain(blocks: usize) -> Self {
        assert!(blocks > 0, "topology needs at least one block");
        Self {
            blocks,
            interfaces: (0..blocks.saturating_sub(1)).map(|i| (i, i + 1)).collect(),
        }
    }

    /// Number of blocks.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// The interfaces, in canonical exchange order.
    #[must_use]
    pub fn interfaces(&self) -> &[(usize, usize)] {
        &self.interfaces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_links_every_adjacent_pair() {
        let t = Topology::chain(4);
        assert_eq!(t.blocks(), 4);
        assert_eq!(t.interfaces(), &[(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn single_block_chain_has_no_interfaces() {
        assert!(Topology::chain(1).interfaces().is_empty());
        assert!(Topology::new(3, Vec::new())
            .unwrap()
            .interfaces()
            .is_empty());
    }

    #[test]
    fn validation_rejects_malformed_interfaces() {
        assert!(Topology::new(0, vec![]).is_err());
        assert!(Topology::new(2, vec![(1, 1)]).is_err());
        assert!(Topology::new(2, vec![(1, 0)]).is_err());
        assert!(Topology::new(2, vec![(0, 2)]).is_err());
        assert!(Topology::new(3, vec![(0, 1), (0, 1)]).is_err());
        let ok = Topology::new(3, vec![(0, 2), (0, 1)]).unwrap();
        assert_eq!(ok.interfaces(), &[(0, 2), (0, 1)]);
    }
}
