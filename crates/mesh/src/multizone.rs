//! Multi-zone grids: zones chained along J.
//!
//! F3D is a *zonal* code: the flow domain is divided into structured
//! zones that abut in the streamwise (J) direction and exchange data at
//! their shared K×L faces once per time step ("zonal injection"). The
//! zones form a J-chain — zone `i`'s high-J face feeds zone `i + 1`'s
//! low-J face — so the zone order is the whole interface graph. Both
//! of the paper's test cases are three-zone grids:
//!
//! * 1-million-point case: `15×75×70`, `87×75×70`, `89×75×70`;
//! * 59-million-point case: `29×450×350`, `173×450×350`, `175×450×350`.

use crate::dims::Dims;
use std::fmt;

/// Specification of one zone: its dimensions and a label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneSpec {
    /// Human-readable zone name.
    pub name: String,
    /// Grid dimensions.
    pub dims: Dims,
}

/// A multi-zone grid: zone specs in J-chain order, adjacent zones
/// sharing their K and L extents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiZoneGrid {
    zones: Vec<ZoneSpec>,
}

impl MultiZoneGrid {
    /// Build a grid from zones chained along J in order: zone `i`'s
    /// high-J face feeds zone `i+1`'s low-J face.
    ///
    /// # Panics
    /// Panics if the zone list is empty or adjacent zones disagree on
    /// the K or L extent.
    #[must_use]
    pub fn chained(zones: Vec<ZoneSpec>) -> Self {
        assert!(!zones.is_empty(), "a grid needs at least one zone");
        for w in zones.windows(2) {
            assert!(
                w[0].dims.k == w[1].dims.k && w[0].dims.l == w[1].dims.l,
                "zones {:?} and {:?} do not share a K x L face",
                w[0].name,
                w[1].name
            );
        }
        Self { zones }
    }

    /// Zone specs.
    #[must_use]
    pub fn zones(&self) -> &[ZoneSpec] {
        &self.zones
    }

    /// Total grid points over all zones.
    #[must_use]
    pub fn total_points(&self) -> usize {
        self.zones.iter().map(|z| z.dims.points()).sum()
    }

    /// The paper's 1-million-grid-point test case.
    #[must_use]
    pub fn paper_one_million() -> Self {
        Self::chained(vec![
            ZoneSpec {
                name: "zone1".into(),
                dims: Dims::new(15, 75, 70),
            },
            ZoneSpec {
                name: "zone2".into(),
                dims: Dims::new(87, 75, 70),
            },
            ZoneSpec {
                name: "zone3".into(),
                dims: Dims::new(89, 75, 70),
            },
        ])
    }

    /// The paper's 59-million-grid-point test case.
    #[must_use]
    pub fn paper_fifty_nine_million() -> Self {
        Self::chained(vec![
            ZoneSpec {
                name: "zone1".into(),
                dims: Dims::new(29, 450, 350),
            },
            ZoneSpec {
                name: "zone2".into(),
                dims: Dims::new(173, 450, 350),
            },
            ZoneSpec {
                name: "zone3".into(),
                dims: Dims::new(175, 450, 350),
            },
        ])
    }

    /// Split a monolithic `total` grid into `nzones` J-chained zones
    /// with a one-point overlap at each interface — the zonal
    /// decomposition that turned single-block grids into F3D's
    /// multi-zone cases. The J extents sum to `total.j + (nzones - 1)`
    /// (each interface plane is stored by both neighbors), distributed
    /// as evenly as possible.
    ///
    /// # Panics
    /// Panics if `nzones == 0` or the J extent is too small for every
    /// zone to have at least two planes.
    #[must_use]
    pub fn split_j(total: Dims, nzones: usize) -> Self {
        assert!(nzones > 0, "need at least one zone");
        let planes = total.j + (nzones - 1); // with interface duplication
        assert!(
            planes >= 2 * nzones,
            "J extent {} too small for {} zones",
            total.j,
            nzones
        );
        let base = planes / nzones;
        let extra = planes % nzones;
        let zones = (0..nzones)
            .map(|i| ZoneSpec {
                name: format!("zone{}", i + 1),
                dims: Dims::new(base + usize::from(i < extra), total.k, total.l),
            })
            .collect();
        Self::chained(zones)
    }

    /// A small three-zone case with the same J-chained topology as the
    /// paper grids, scaled down for unit tests and examples.
    #[must_use]
    pub fn small_test_case() -> Self {
        Self::chained(vec![
            ZoneSpec {
                name: "zone1".into(),
                dims: Dims::new(5, 12, 10),
            },
            ZoneSpec {
                name: "zone2".into(),
                dims: Dims::new(9, 12, 10),
            },
            ZoneSpec {
                name: "zone3".into(),
                dims: Dims::new(11, 12, 10),
            },
        ])
    }
}

impl fmt::Display for MultiZoneGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} zones (", self.zones.len())?;
        for (i, z) in self.zones.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", z.dims)?;
        }
        write!(f, "), {} points", self.total_points())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cases_point_counts() {
        assert_eq!(MultiZoneGrid::paper_one_million().total_points(), 1_002_750);
        assert_eq!(
            MultiZoneGrid::paper_fifty_nine_million().total_points(),
            59_377_500
        );
    }

    #[test]
    fn single_zone_has_no_interfaces() {
        let g = MultiZoneGrid::chained(vec![ZoneSpec {
            name: "only".into(),
            dims: Dims::new(10, 10, 10),
        }]);
        assert_eq!(g.total_points(), 1000);
    }

    #[test]
    fn split_j_conserves_planes() {
        let total = Dims::new(100, 30, 20);
        for n in [1usize, 2, 3, 7] {
            let g = MultiZoneGrid::split_j(total, n);
            assert_eq!(g.zones().len(), n);
            let j_sum: usize = g.zones().iter().map(|z| z.dims.j).sum();
            assert_eq!(j_sum, 100 + (n - 1), "n={n}");
            // Extents balanced within one plane.
            let max = g.zones().iter().map(|z| z.dims.j).max().unwrap();
            let min = g.zones().iter().map(|z| z.dims.j).min().unwrap();
            assert!(max - min <= 1);
            // Transverse extents preserved.
            assert!(g.zones().iter().all(|z| z.dims.k == 30 && z.dims.l == 20));
        }
    }

    #[test]
    fn split_j_single_zone_is_identity() {
        let total = Dims::new(17, 5, 5);
        let g = MultiZoneGrid::split_j(total, 1);
        assert_eq!(g.zones()[0].dims, total);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn split_j_rejects_thin_grids() {
        let _ = MultiZoneGrid::split_j(Dims::new(5, 5, 5), 5);
    }

    #[test]
    fn display_format() {
        let s = MultiZoneGrid::paper_one_million().to_string();
        assert!(s.contains("3 zones"));
        assert!(s.contains("15x75x70"));
        assert!(s.contains("1002750 points"));
    }

    #[test]
    #[should_panic(expected = "do not share")]
    fn mismatched_faces_panic() {
        let _ = MultiZoneGrid::chained(vec![
            ZoneSpec {
                name: "a".into(),
                dims: Dims::new(5, 10, 10),
            },
            ZoneSpec {
                name: "b".into(),
                dims: Dims::new(5, 11, 10),
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one zone")]
    fn empty_grid_panics() {
        let _ = MultiZoneGrid::chained(vec![]);
    }
}
