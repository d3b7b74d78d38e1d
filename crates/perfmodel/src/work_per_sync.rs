//! Work available per synchronization event (paper Section 3, Table 2).
//!
//! Table 2 of the paper tabulates, for a one-million-grid-point zone, how
//! many cycles of work are available between synchronization events when
//! different loop levels of the nest are parallelized. Parallelizing the
//! outer loop of a 3-D nest gives six orders of magnitude more work per
//! synchronization than parallelizing the inner loop of a boundary
//! condition — which is the paper's quantitative argument for
//! (a) parallelizing outer loops and (b) leaving boundary-condition
//! routines serial.
//!
//! The accounting is simple: one synchronization event terminates each
//! execution of the parallel region, so
//!
//! ```text
//! work per sync = (grid points covered by one parallel region) * w
//! ```
//!
//! where `w` is the work per grid point in cycles.

/// Which loop of the nest carries the parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoopLevel {
    /// The innermost loop (what vectorization uses).
    Inner,
    /// The middle loop of a 3-D nest.
    Middle,
    /// The outermost loop.
    Outer,
    /// The inner loop of a boundary-condition (surface) routine.
    BoundaryInner,
    /// The outer loop of a boundary-condition (surface) routine.
    BoundaryOuter,
}

impl LoopLevel {
    /// Every loop level, in the order Table 2 discusses them.
    pub const ALL: [LoopLevel; 5] = [
        LoopLevel::Inner,
        LoopLevel::Middle,
        LoopLevel::Outer,
        LoopLevel::BoundaryInner,
        LoopLevel::BoundaryOuter,
    ];

    /// Stable lower-snake name, used in query/response wire formats.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LoopLevel::Inner => "inner",
            LoopLevel::Middle => "middle",
            LoopLevel::Outer => "outer",
            LoopLevel::BoundaryInner => "boundary_inner",
            LoopLevel::BoundaryOuter => "boundary_outer",
        }
    }

    /// Inverse of [`LoopLevel::name`]; `None` for unknown names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|lv| lv.name() == name)
    }
}

/// A grid loop nest of one, two, or three dimensions, with the iteration
/// counts ordered outermost-first (e.g. `ThreeD { l: 100, k: 100, j: 100 }`
/// is `DO L / DO K / DO J`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridNest {
    /// A single loop over `n` points.
    OneD {
        /// Iteration count.
        n: u64,
    },
    /// A doubly-nested loop; `outer` × `inner` points.
    TwoD {
        /// Outer iteration count.
        outer: u64,
        /// Inner iteration count.
        inner: u64,
    },
    /// A triply-nested loop; `outer` × `middle` × `inner` points.
    ThreeD {
        /// Outer iteration count.
        outer: u64,
        /// Middle iteration count.
        middle: u64,
        /// Inner iteration count.
        inner: u64,
    },
}

impl GridNest {
    /// Build a nest from outermost-first dimensions, validating that
    /// there are one to three of them, each positive, and that the
    /// total point count fits in `u64` (so the per-sync products in
    /// [`GridNest::points_per_sync`] cannot overflow). `None` on any
    /// violation — the untrusted-input constructor for services.
    #[must_use]
    pub fn from_dims(dims: &[u64]) -> Option<Self> {
        if dims.contains(&0) {
            return None;
        }
        let nest = match *dims {
            [n] => GridNest::OneD { n },
            [outer, inner] => {
                outer.checked_mul(inner)?;
                GridNest::TwoD { outer, inner }
            }
            [outer, middle, inner] => {
                outer.checked_mul(middle)?.checked_mul(inner)?;
                GridNest::ThreeD {
                    outer,
                    middle,
                    inner,
                }
            }
            _ => return None,
        };
        Some(nest)
    }

    /// Total number of grid points in the nest.
    #[must_use]
    pub fn points(&self) -> u64 {
        match *self {
            GridNest::OneD { n } => n,
            GridNest::TwoD { outer, inner } => outer * inner,
            GridNest::ThreeD {
                outer,
                middle,
                inner,
            } => outer * middle * inner,
        }
    }

    /// Grid points covered by one execution of the parallel region when
    /// `level` is the parallelized loop, or `None` if the nest has no
    /// such level (e.g. `Middle` of a 1-D or 2-D nest).
    ///
    /// * `Outer`: one synchronization for the whole nest → all points.
    /// * `Middle` (3-D): one synchronization per outer iteration →
    ///   `middle * inner` points.
    /// * `Inner`: one synchronization per (outer×middle) iteration →
    ///   `inner` points.
    /// * `BoundaryOuter` / `BoundaryInner`: same accounting applied to a
    ///   face of the zone.
    #[must_use]
    pub fn points_per_sync(&self, level: LoopLevel) -> Option<u64> {
        match (*self, level) {
            (GridNest::OneD { n }, LoopLevel::Outer | LoopLevel::Inner) => Some(n),
            (GridNest::OneD { .. }, _) => None,
            (GridNest::TwoD { outer, inner }, LoopLevel::Outer) => Some(outer * inner),
            (GridNest::TwoD { inner, .. }, LoopLevel::Inner) => Some(inner),
            // A 2-D zone's boundary is a line of `inner` points; the
            // paper's single 2-D "Boundary condition" row parallelizes it
            // as one loop.
            (GridNest::TwoD { inner, .. }, LoopLevel::BoundaryInner | LoopLevel::BoundaryOuter) => {
                Some(inner)
            }
            (GridNest::TwoD { .. }, LoopLevel::Middle) => None,
            (
                GridNest::ThreeD {
                    outer,
                    middle,
                    inner,
                },
                LoopLevel::Outer,
            ) => Some(outer * middle * inner),
            (GridNest::ThreeD { middle, inner, .. }, LoopLevel::Middle) => Some(middle * inner),
            (GridNest::ThreeD { inner, .. }, LoopLevel::Inner) => Some(inner),
            (GridNest::ThreeD { middle, inner, .. }, LoopLevel::BoundaryOuter) => {
                Some(middle * inner)
            }
            (GridNest::ThreeD { inner, .. }, LoopLevel::BoundaryInner) => Some(inner),
        }
    }

    /// Available parallelism (iteration count of the parallelized loop)
    /// for `level`, or `None` if the nest has no such level.
    #[must_use]
    pub fn available_parallelism(&self, level: LoopLevel) -> Option<u64> {
        match (*self, level) {
            (GridNest::OneD { n }, LoopLevel::Outer | LoopLevel::Inner) => Some(n),
            (GridNest::OneD { .. }, _) => None,
            (GridNest::TwoD { outer, .. }, LoopLevel::Outer) => Some(outer),
            (GridNest::TwoD { inner, .. }, LoopLevel::Inner) => Some(inner),
            (GridNest::TwoD { inner, .. }, LoopLevel::BoundaryInner | LoopLevel::BoundaryOuter) => {
                Some(inner)
            }
            (GridNest::TwoD { .. }, LoopLevel::Middle) => None,
            (GridNest::ThreeD { outer, .. }, LoopLevel::Outer) => Some(outer),
            (GridNest::ThreeD { middle, .. }, LoopLevel::Middle) => Some(middle),
            (GridNest::ThreeD { inner, .. }, LoopLevel::Inner) => Some(inner),
            (GridNest::ThreeD { middle, .. }, LoopLevel::BoundaryOuter) => Some(middle),
            (GridNest::ThreeD { inner, .. }, LoopLevel::BoundaryInner) => Some(inner),
        }
    }
}

/// Work available per synchronization event for one (nest, level, w)
/// combination — one cell of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkPerSync {
    /// Grid points covered per parallel-region execution.
    pub points_per_sync: u64,
    /// Work per grid point in cycles.
    pub work_per_point: u64,
}

impl WorkPerSync {
    /// Compute for a given nest, loop level, and per-point work; `None`
    /// if the nest has no such loop level.
    #[must_use]
    pub fn compute(nest: GridNest, level: LoopLevel, work_per_point: u64) -> Option<Self> {
        nest.points_per_sync(level).map(|points_per_sync| Self {
            points_per_sync,
            work_per_point,
        })
    }

    /// The cycles of work available between synchronization events.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.points_per_sync * self.work_per_point
    }
}

/// The per-point work columns of Table 2, in cycles.
pub const TABLE2_WORK_PER_POINT: [u64; 3] = [10, 100, 1000];

/// The three one-million-point problem configurations of Table 2.
#[must_use]
pub fn table2_nests() -> [(&'static str, GridNest); 3] {
    [
        ("1-D", GridNest::OneD { n: 1_000_000 }),
        (
            "2-D",
            GridNest::TwoD {
                outer: 1_000,
                inner: 1_000,
            },
        ),
        (
            "3-D",
            GridNest::ThreeD {
                outer: 100,
                middle: 100,
                inner: 100,
            },
        ),
    ]
}

/// One row of Table 2: a labelled (nest, loop-level) combination and the
/// work per sync event for each per-point work column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Problem type label ("1-D", "2-D", "3-D").
    pub problem: &'static str,
    /// Loop-level label as printed in the paper.
    pub label: &'static str,
    /// Work per sync event in cycles, one entry per
    /// [`TABLE2_WORK_PER_POINT`] column.
    pub cycles: Vec<u64>,
}

/// Generate the full Table 2 of the paper.
#[must_use]
pub fn table2() -> Vec<Table2Row> {
    let mut rows = Vec::new();
    let mut push = |problem: &'static str, label: &'static str, nest: GridNest, lv: LoopLevel| {
        let cycles = TABLE2_WORK_PER_POINT
            .iter()
            .map(|&w| {
                WorkPerSync::compute(nest, lv, w)
                    .expect("level must exist for this nest")
                    .cycles()
            })
            .collect();
        rows.push(Table2Row {
            problem,
            label,
            cycles,
        });
    };

    let [(l1, n1), (l2, n2), (l3, n3)] = table2_nests();
    push(l1, "Whole loop", n1, LoopLevel::Outer);
    push(l2, "Inner loop", n2, LoopLevel::Inner);
    push(l2, "Outer loop", n2, LoopLevel::Outer);
    push(l2, "Boundary condition", n2, LoopLevel::BoundaryInner);
    push(l3, "Inner loop", n3, LoopLevel::Inner);
    push(l3, "Middle loop", n3, LoopLevel::Middle);
    push(l3, "Outer loop", n3, LoopLevel::Outer);
    push(
        l3,
        "Boundary condition - inner loop",
        n3,
        LoopLevel::BoundaryInner,
    );
    push(
        l3,
        "Boundary condition - outer loop",
        n3,
        LoopLevel::BoundaryOuter,
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_level_names_round_trip() {
        for lv in LoopLevel::ALL {
            assert_eq!(LoopLevel::from_name(lv.name()), Some(lv));
        }
        assert_eq!(LoopLevel::from_name("galaxy"), None);
    }

    #[test]
    fn from_dims_validates() {
        assert_eq!(GridNest::from_dims(&[7]), Some(GridNest::OneD { n: 7 }));
        assert_eq!(
            GridNest::from_dims(&[3, 4]),
            Some(GridNest::TwoD { outer: 3, inner: 4 })
        );
        assert_eq!(
            GridNest::from_dims(&[2, 3, 4]),
            Some(GridNest::ThreeD {
                outer: 2,
                middle: 3,
                inner: 4
            })
        );
        assert_eq!(GridNest::from_dims(&[]), None);
        assert_eq!(GridNest::from_dims(&[1, 2, 3, 4]), None);
        assert_eq!(GridNest::from_dims(&[0, 5]), None);
        assert_eq!(GridNest::from_dims(&[u64::MAX, u64::MAX]), None);
        assert_eq!(GridNest::from_dims(&[u64::MAX, 2, 2]), None);
    }

    #[test]
    fn table2_matches_paper() {
        // Every number printed in Table 2 of the paper, in row order.
        let expect: [(&str, [u64; 3]); 9] = [
            ("1-D/Whole loop", [10_000_000, 100_000_000, 1_000_000_000]),
            ("2-D/Inner loop", [10_000, 100_000, 1_000_000]),
            ("2-D/Outer loop", [10_000_000, 100_000_000, 1_000_000_000]),
            ("2-D/Boundary condition", [10_000, 100_000, 1_000_000]),
            ("3-D/Inner loop", [1_000, 10_000, 100_000]),
            ("3-D/Middle loop", [100_000, 1_000_000, 10_000_000]),
            ("3-D/Outer loop", [10_000_000, 100_000_000, 1_000_000_000]),
            (
                "3-D/Boundary condition - inner loop",
                [1_000, 10_000, 100_000],
            ),
            (
                "3-D/Boundary condition - outer loop",
                [100_000, 1_000_000, 10_000_000],
            ),
        ];
        let rows = table2();
        assert_eq!(rows.len(), expect.len());
        for (row, (name, vals)) in rows.iter().zip(expect.iter()) {
            let full = format!("{}/{}", row.problem, row.label);
            assert_eq!(&full, name);
            assert_eq!(row.cycles.as_slice(), vals.as_slice(), "{name}");
        }
    }

    #[test]
    fn outer_loop_always_covers_all_points() {
        for (_, nest) in table2_nests() {
            assert_eq!(nest.points_per_sync(LoopLevel::Outer), Some(nest.points()));
        }
    }

    #[test]
    fn points_are_one_million() {
        for (_, nest) in table2_nests() {
            assert_eq!(nest.points(), 1_000_000);
        }
    }

    #[test]
    fn middle_level_missing_for_low_dims() {
        assert_eq!(
            GridNest::OneD { n: 10 }.points_per_sync(LoopLevel::Middle),
            None
        );
        assert_eq!(
            GridNest::TwoD { outer: 3, inner: 4 }.points_per_sync(LoopLevel::Middle),
            None
        );
    }

    #[test]
    fn available_parallelism_matches_loop_extent() {
        let nest = GridNest::ThreeD {
            outer: 70,
            middle: 75,
            inner: 89,
        };
        assert_eq!(nest.available_parallelism(LoopLevel::Outer), Some(70));
        assert_eq!(nest.available_parallelism(LoopLevel::Middle), Some(75));
        assert_eq!(nest.available_parallelism(LoopLevel::Inner), Some(89));
        assert_eq!(
            nest.available_parallelism(LoopLevel::BoundaryOuter),
            Some(75)
        );
    }

    #[test]
    fn work_per_sync_cycles_product() {
        let w = WorkPerSync {
            points_per_sync: 123,
            work_per_point: 7,
        };
        assert_eq!(w.cycles(), 861);
    }
}
