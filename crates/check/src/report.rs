//! Violation reporting types: what invariant broke, where, and why.
//!
//! Every checker in this crate returns `Vec<Violation>` — an empty vector
//! means the artifact satisfies its contract. A [`Violation`] carries a
//! machine-readable [`Invariant`] class and [`Location`], plus a
//! human-readable detail string, so callers can both branch on the failure
//! kind and print something actionable.

use std::fmt;

use cachedse_json::Value;

/// The invariant classes verified by this crate, one per checkable claim the
/// paper's construction makes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// A bit's zero set and one set intersect (Table 3 requires `Z_i ∩ O_i =
    /// ∅`).
    ZeroOneDisjoint,
    /// A bit's zero and one sets do not jointly cover the unique references
    /// (`Z_i ∪ O_i` must equal the unique-reference set).
    ZeroOneCoverage,
    /// A reference sits in the wrong set for its actual address bit.
    ZeroOneMembership,
    /// A BCAT level fails to partition the unique references (missing or
    /// doubly-assigned reference, or duplicate row).
    BcatPartition,
    /// A BCAT node holds a reference whose low index bits do not select the
    /// node's row.
    BcatRowSelection,
    /// BCAT growth stopped at the wrong place: a splittable node was left a
    /// leaf before the bit budget ran out, or a too-small node was split
    /// (Algorithm 1 stops exactly below cardinality 2).
    BcatGrowthStop,
    /// A reference has the wrong number of conflict sets (Algorithm 2 emits
    /// exactly one per non-first occurrence).
    MrctSetCount,
    /// A conflict set contains the reference it belongs to.
    MrctSelfConflict,
    /// A conflict set is unsorted, has duplicates, or references an
    /// out-of-range identifier.
    MrctSetMalformed,
    /// A conflict set disagrees with the distinct references actually
    /// touched in the occurrence's reuse window.
    MrctWindowMismatch,
    /// A frontier point misses more than the budget when replayed on the
    /// simulator.
    FrontierOverBudget,
    /// A frontier point's associativity is not minimal: one way fewer also
    /// meets the budget on the simulator.
    FrontierNotMinimal,
    /// Frontier associativities increase with depth (deeper caches split
    /// rows, so required ways can only shrink).
    FrontierNonMonotoneDepth,
    /// A looser miss budget demanded more ways than a tighter one at the
    /// same depth.
    FrontierNonMonotoneBudget,
    /// The depth-first engine produced a per-level profile different
    /// from the materialized reference
    /// (`postlude::materialized_profiles`); the engines are
    /// interchangeable only because they are byte-identical.
    EngineDivergence,
    /// The streamed MRCT→postlude fusion produced a per-level profile
    /// different from the materialized `Mrct::build` + postlude path; the
    /// fused engine is sound only because it is byte-identical to the
    /// paper's Algorithms 2–3 as published.
    ProfileDivergence,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::ZeroOneDisjoint => "zero-one-disjoint",
            Self::ZeroOneCoverage => "zero-one-coverage",
            Self::ZeroOneMembership => "zero-one-membership",
            Self::BcatPartition => "bcat-partition",
            Self::BcatRowSelection => "bcat-row-selection",
            Self::BcatGrowthStop => "bcat-growth-stop",
            Self::MrctSetCount => "mrct-set-count",
            Self::MrctSelfConflict => "mrct-self-conflict",
            Self::MrctSetMalformed => "mrct-set-malformed",
            Self::MrctWindowMismatch => "mrct-window-mismatch",
            Self::FrontierOverBudget => "frontier-over-budget",
            Self::FrontierNotMinimal => "frontier-not-minimal",
            Self::FrontierNonMonotoneDepth => "frontier-non-monotone-depth",
            Self::FrontierNonMonotoneBudget => "frontier-non-monotone-budget",
            Self::EngineDivergence => "engine-divergence",
            Self::ProfileDivergence => "profile-divergence",
        };
        f.write_str(name)
    }
}

/// Machine-readable position of a violation within the checked artifact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Location {
    /// The artifact as a whole.
    Global,
    /// Address bit `i` (a zero/one set pair).
    Bit(u32),
    /// Tree level `l` as a whole (depth `2^l`), e.g. one engine's per-level
    /// conflict-depth profile.
    Level(u32),
    /// The BCAT node at `level` describing cache row `row`.
    Node {
        /// Tree level (depth `2^level`).
        level: u32,
        /// Row index within the level.
        row: u32,
    },
    /// Occurrence `occurrence` (0-based among non-first occurrences) of
    /// unique reference `reference`.
    Occurrence {
        /// Unique-reference identifier.
        reference: u32,
        /// 0-based index among the reference's conflict sets.
        occurrence: usize,
    },
    /// The design point `(depth, associativity)`.
    Point {
        /// Cache depth (number of rows).
        depth: u32,
        /// Associativity (ways).
        associativity: u32,
    },
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Global => write!(f, "global"),
            Self::Bit(i) => write!(f, "bit {i}"),
            Self::Level(l) => write!(f, "level {l}"),
            Self::Node { level, row } => write!(f, "level {level} row {row}"),
            Self::Occurrence {
                reference,
                occurrence,
            } => write!(f, "ref {reference} occurrence {occurrence}"),
            Self::Point {
                depth,
                associativity,
            } => write!(f, "(D={depth}, A={associativity})"),
        }
    }
}

/// One violated invariant: class, position, and human-readable evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant class failed.
    pub invariant: Invariant,
    /// Where in the artifact it failed.
    pub location: Location,
    /// Human-readable evidence (actual vs expected).
    pub detail: String,
}

impl Violation {
    /// Builds a violation.
    #[must_use]
    pub fn new(invariant: Invariant, location: Location, detail: impl Into<String>) -> Self {
        Self {
            invariant,
            location,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] at {}: {}",
            self.invariant, self.location, self.detail
        )
    }
}

impl Violation {
    /// Renders the violation as a JSON object
    /// (`{"invariant": …, "location": …, "detail": …}`).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::object([
            ("invariant", Value::from(self.invariant.to_string())),
            ("location", Value::from(self.location.to_string())),
            ("detail", Value::from(self.detail.as_str())),
        ])
    }
}

/// The aggregated outcome of a full-pipeline check, grouped by invariant
/// family.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Zero/one-set complementarity and coverage violations (Table 3).
    pub zero_one: Vec<Violation>,
    /// BCAT partition-soundness violations (Algorithm 1, Figure 3).
    pub bcat: Vec<Violation>,
    /// MRCT well-formedness violations (Algorithm 2, Table 4).
    pub mrct: Vec<Violation>,
    /// Frontier minimality and monotonicity violations.
    pub frontier: Vec<Violation>,
    /// Engine-agreement violations (depth-first engines vs the
    /// materialized reference).
    pub engine: Vec<Violation>,
    /// Streamed-vs-materialized postlude divergence violations (the fused
    /// replay against `postlude::materialized_profiles`).
    pub profiles: Vec<Violation>,
}

impl CheckReport {
    /// `true` when no checker reported anything.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total() == 0
    }

    /// Total number of violations across all families.
    #[must_use]
    pub fn total(&self) -> usize {
        self.zero_one.len()
            + self.bcat.len()
            + self.mrct.len()
            + self.frontier.len()
            + self.engine.len()
            + self.profiles.len()
    }

    /// Iterates every violation, family by family.
    pub fn iter(&self) -> impl Iterator<Item = &Violation> {
        self.zero_one
            .iter()
            .chain(&self.bcat)
            .chain(&self.mrct)
            .chain(&self.frontier)
            .chain(&self.engine)
            .chain(&self.profiles)
    }

    /// Renders the whole report as one JSON object: `clean`, per-family
    /// counts, and the violation list. This is what `cachedse check
    /// --format json` prints.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let counts = Value::object([
            ("zero_one", Value::from(self.zero_one.len())),
            ("bcat", Value::from(self.bcat.len())),
            ("mrct", Value::from(self.mrct.len())),
            ("frontier", Value::from(self.frontier.len())),
            ("engine", Value::from(self.engine.len())),
            ("profiles", Value::from(self.profiles.len())),
        ]);
        Value::object([
            ("clean", Value::from(self.is_clean())),
            ("total", Value::from(self.total())),
            ("counts", counts),
            (
                "violations",
                Value::array(self.iter().map(Violation::to_json)),
            ),
        ])
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "zero/one: {}, bcat: {}, mrct: {}, frontier: {}, engine: {}, profiles: {} \
             violation(s)",
            self.zero_one.len(),
            self.bcat.len(),
            self.mrct.len(),
            self.frontier.len(),
            self.engine.len(),
            self.profiles.len()
        )?;
        for v in self.iter() {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let v = Violation::new(
            Invariant::BcatPartition,
            Location::Node { level: 2, row: 1 },
            "ref 3 missing",
        );
        assert_eq!(
            v.to_string(),
            "[bcat-partition] at level 2 row 1: ref 3 missing"
        );
        assert_eq!(Location::Bit(4).to_string(), "bit 4");
        assert_eq!(
            Location::Point {
                depth: 8,
                associativity: 2
            }
            .to_string(),
            "(D=8, A=2)"
        );
        assert_eq!(
            Location::Occurrence {
                reference: 1,
                occurrence: 0
            }
            .to_string(),
            "ref 1 occurrence 0"
        );
        assert_eq!(Location::Global.to_string(), "global");
    }

    #[test]
    fn report_aggregation() {
        let mut r = CheckReport::default();
        assert!(r.is_clean());
        r.mrct.push(Violation::new(
            Invariant::MrctSelfConflict,
            Location::Occurrence {
                reference: 0,
                occurrence: 0,
            },
            "set contains 0",
        ));
        assert_eq!(r.total(), 1);
        assert!(!r.is_clean());
        assert_eq!(r.iter().count(), 1);
        assert!(r.to_string().contains("mrct: 1"));
    }

    #[test]
    fn json_report_round_trips() {
        let mut r = CheckReport::default();
        assert_eq!(
            r.to_json().get("clean").and_then(Value::as_bool),
            Some(true)
        );
        r.bcat.push(Violation::new(
            Invariant::BcatRowSelection,
            Location::Node { level: 1, row: 0 },
            "ref 2 has low bits 1, node row 0",
        ));
        let rendered = r.to_json().render();
        let back = Value::parse(&rendered).unwrap();
        assert_eq!(back.get("clean").and_then(Value::as_bool), Some(false));
        assert_eq!(back.get("total").and_then(Value::as_u64), Some(1));
        assert_eq!(
            back.get("counts")
                .and_then(|c| c.get("bcat"))
                .and_then(Value::as_u64),
            Some(1)
        );
        let violations = back.get("violations").and_then(Value::as_array).unwrap();
        assert_eq!(
            violations[0].get("invariant").and_then(Value::as_str),
            Some("bcat-row-selection")
        );
        assert_eq!(
            violations[0].get("location").and_then(Value::as_str),
            Some("level 1 row 0")
        );
    }
}
