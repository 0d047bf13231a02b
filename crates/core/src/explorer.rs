//! The public exploration API: trace in, optimal `(depth, associativity)`
//! pairs out (Figure 1b of the paper).

use std::fmt;

use cachedse_sim::onepass::DepthProfile;
use cachedse_sim::DesignPoint;
use cachedse_trace::stats::TraceStats;
use cachedse_trace::strip::StrippedTrace;
use cachedse_trace::Trace;

use crate::dfs;
use crate::error::ExploreError;
use crate::streamed;

/// The designer's miss constraint `K`.
///
/// The paper sets `K` both as an absolute count and, in the experiments, as a
/// percentage of the *maximum* miss count (the avoidable misses of a depth-1
/// direct-mapped cache, Tables 5–6).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MissBudget {
    /// At most this many misses beyond the cold misses.
    Absolute(u64),
    /// At most this fraction (`0.0..=1.0`) of the trace's maximum avoidable
    /// miss count — e.g. `0.05` for the paper's "5%" columns.
    FractionOfMax(f64),
}

/// Which implementation of the analytical method to run.
///
/// Both engines return exactly the profiles of the paper's Algorithms 1–3
/// run as published, [`postlude::materialized_profiles`](crate::postlude::materialized_profiles)
/// — the reference they are checked against, not an engine itself. Each
/// wins on some traces, so the default, [`Engine::Auto`], picks one per
/// trace; pinning an engine is for benchmarks and differential tests.
/// Every engine runs serially, one analysis on one thread: services run
/// whole analyses in parallel across their worker pool instead.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Runs the streamed fold from the root, or the hybrid — depth-first
    /// at the top of the BCAT, the fold below a per-node switch — whichever
    /// one O(N) pass over the trace's reuse spans predicts is faster
    /// (DESIGN.md §16, "Engine choice"). An [`Exploration`] records the
    /// engine that swept the root, [`Engine::Streamed`] or
    /// [`Engine::DepthFirst`], never `Auto`.
    #[default]
    Auto,
    /// The streamed MRCT→postlude fusion (DESIGN.md §16): the tombstone
    /// recency-array replay of [`Mrct::build`](crate::Mrct::build) with each
    /// conflict set folded into the per-level histograms the moment it is
    /// produced — `O(unique refs)` memory, no arena, no sizing pass.
    Streamed,
    /// The Section 2.4 combined algorithm: depth-first subtrace partitioning,
    /// linear space, no materialized BCAT/MRCT. Pinned, it sweeps every
    /// level and never switches to the fold.
    DepthFirst,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Auto => f.write_str("auto"),
            Self::Streamed => f.write_str("streamed"),
            Self::DepthFirst => f.write_str("depth-first"),
        }
    }
}

/// [`Engine::Auto`] runs the streamed fold from the root when the reuse
/// span `S = Σ (t − p)` over every recurrence at `t` of a reference last
/// seen at `p` is at most this many times `N · max_index_bits`, and the
/// hybrid otherwise: depth-first at the root, the fold wherever `dfs`'s
/// per-node rule finds it cheaper further down. `S` bounds the fold's
/// work (the total LRU stack distance); depth-first pays about `N` per
/// level. On the 24 kernel traces `S / (N · bits)` is 0.5–14.4 wherever
/// the fold from the root is fastest and 51–604 wherever the hybrid is
/// (DESIGN.md §16, "Engine choice"); 27 is near the gap's geometric
/// middle.
const FOLD_SPAN_PER_REF_LEVEL: u64 = 27;

/// Resolves [`Engine::Auto`] for one trace, `true` when the streamed fold
/// runs from the root: one pass over the id sequence with a last-position
/// array of `N'` entries.
fn auto_folds_root(stripped: &StrippedTrace, max_bits: u32) -> bool {
    let ids = stripped.id_sequence();
    // Depth-first sweeps `u32` positions; only the fold takes longer traces.
    let Some(n) = u32::try_from(ids.len()).ok().filter(|&n| n < u32::MAX) else {
        return true;
    };
    let mut last_pos = vec![0u32; stripped.unique_len()];
    let mut span = 0u64;
    // Positions count from 1 and end at `n`, so 0 marks a first occurrence.
    for (t, id) in (1u32..).zip(ids) {
        let p = std::mem::replace(&mut last_pos[id.index()], t);
        if p != 0 {
            span += u64::from(t - p);
        }
    }
    span <= FOLD_SPAN_PER_REF_LEVEL * u64::from(n) * u64::from(max_bits)
}

/// Entry point: explores the `(depth, associativity)` design space of a
/// trace.
///
/// # Examples
///
/// ```
/// use cachedse_core::{DesignSpaceExplorer, MissBudget};
/// use cachedse_trace::paper_running_example;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = paper_running_example();
/// let result = DesignSpaceExplorer::new(&trace)
///     .explore(MissBudget::Absolute(0))?;
/// // Section 2.3: a depth-2 cache needs 3 ways for zero avoidable misses.
/// assert_eq!(result.associativity_of(2), Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, Debug)]
pub struct DesignSpaceExplorer<'a> {
    trace: &'a Trace,
    max_index_bits: Option<u32>,
    engine: Engine,
}

impl<'a> DesignSpaceExplorer<'a> {
    /// Creates an explorer over `trace`.
    #[must_use]
    pub fn new(trace: &'a Trace) -> Self {
        Self {
            trace,
            max_index_bits: None,
            engine: Engine::default(),
        }
    }

    /// Limits the explored depths to `1, 2, …, 2^bits`. Defaults to the
    /// trace's address width, beyond which deeper caches cannot change the
    /// row partition.
    #[must_use]
    pub fn max_index_bits(mut self, bits: u32) -> Self {
        self.max_index_bits = Some(bits);
        self
    }

    /// Pins the engine instead of letting [`Engine::Auto`] pick per trace.
    #[must_use]
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Runs the prelude and postlude phases once, retaining the per-depth
    /// miss profiles so several budgets can be queried without re-analysis
    /// (how the paper's Tables 7–30 sweep K ∈ {5, 10, 15, 20}%).
    ///
    /// # Errors
    ///
    /// * [`ExploreError::EmptyTrace`] — the trace has no references;
    /// * [`ExploreError::IndexBitsTooLarge`] — more than 31 index bits
    ///   requested.
    pub fn prepare(&self) -> Result<Exploration, ExploreError> {
        if self.trace.is_empty() {
            return Err(ExploreError::EmptyTrace);
        }
        let stripped = StrippedTrace::from_trace(self.trace);
        prepare_stripped(&stripped, self.max_index_bits, self.engine, None)
    }

    /// One-shot exploration: [`prepare`](Self::prepare) followed by
    /// [`Exploration::result`].
    ///
    /// # Errors
    ///
    /// Everything [`prepare`](Self::prepare) returns, plus
    /// [`ExploreError::InvalidBudgetFraction`] for an out-of-range
    /// fractional budget.
    pub fn explore(&self, budget: MissBudget) -> Result<ExplorationResult, ExploreError> {
        self.prepare()?.result(budget)
    }
}

/// Runs the prelude + postlude over an already-stripped trace.
///
/// This is the *borrowed-artifact* entry point the batch service
/// (`cachedse-serve`) builds on: the caller owns the [`StrippedTrace`] and
/// can keep it (and anything derived from it) cached across many budget
/// queries, instead of handing the whole pipeline a raw [`Trace`] that gets
/// re-stripped every run. [`DesignSpaceExplorer::prepare`] is now a thin
/// wrapper over this function.
///
/// [`Engine::Auto`] is resolved here, once per trace, and the resolved
/// engine runs serially. The result never depends on the engine.
///
/// `_retired` is the slot of the retired worker count. Its type is
/// uninhabited, so every caller passes `None` and it selects nothing. It
/// survives only because the benchmark harness passes that literal; the
/// next change to that harness deletes it, together with
/// `TraceArtifacts::tree`.
///
/// # Errors
///
/// * [`ExploreError::EmptyTrace`] — the stripped trace has no references;
/// * [`ExploreError::IndexBitsTooLarge`] — more than 31 index bits
///   requested (explicitly or via the trace's address width).
pub fn prepare_stripped(
    stripped: &StrippedTrace,
    max_index_bits: Option<u32>,
    engine: Engine,
    _retired: Option<std::convert::Infallible>,
) -> Result<Exploration, ExploreError> {
    if stripped.is_empty() {
        return Err(ExploreError::EmptyTrace);
    }
    let max_bits = max_index_bits.unwrap_or_else(|| stripped.address_bits());
    if max_bits > 31 {
        return Err(ExploreError::IndexBitsTooLarge(max_bits));
    }
    // A trace `Auto` does not fold from the root runs the hybrid:
    // depth-first at the top of the tree, the fold below its switch. The
    // exploration records the engine that swept the root.
    let (engine, profiles) = match engine {
        Engine::Auto if !auto_folds_root(stripped, max_bits) => {
            (Engine::DepthFirst, dfs::hybrid_profiles(stripped, max_bits))
        }
        Engine::Auto | Engine::Streamed => (
            Engine::Streamed,
            streamed::level_profiles(stripped, max_bits),
        ),
        Engine::DepthFirst => (engine, dfs::level_profiles(stripped, max_bits)),
    };
    Ok(Exploration {
        profiles,
        stats: TraceStats::of_stripped(stripped),
        engine,
    })
}

/// The analyzed design space: exact per-depth miss profiles, queryable under
/// any number of miss budgets.
#[derive(Clone, Debug, PartialEq)]
pub struct Exploration {
    profiles: Vec<DepthProfile>,
    stats: TraceStats,
    engine: Engine,
}

impl Exploration {
    /// Reassembles an exploration from already-computed per-depth
    /// profiles plus the trace statistics — the path the persistent
    /// artifact store takes on a warm start, where the profiles come off
    /// disk instead of out of an engine. A reassembled exploration is
    /// `==` to the one the named `engine` originally produced.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural violation:
    /// [`Engine::Auto`] (an exploration records the engine that ran), no
    /// profiles, or depths that are not the strictly doubling sequence
    /// `1, 2, 4, …` every query method assumes (loaded bytes are
    /// untrusted and must never panic downstream).
    pub fn from_parts(
        profiles: Vec<DepthProfile>,
        stats: TraceStats,
        engine: Engine,
    ) -> Result<Self, String> {
        if engine == Engine::Auto {
            return Err("an exploration records the engine that ran, not `auto`".to_owned());
        }
        if profiles.is_empty() {
            return Err("an exploration has at least the depth-1 profile".to_owned());
        }
        for (i, p) in profiles.iter().enumerate() {
            let expected = 1u32 << i.min(31);
            if p.depth() != expected {
                return Err(format!(
                    "profile {i} is for depth {}, expected {expected}",
                    p.depth()
                ));
            }
        }
        Ok(Self {
            profiles,
            stats,
            engine,
        })
    }

    /// The per-depth miss profiles, ordered by increasing depth
    /// (`1, 2, 4, …`).
    #[must_use]
    pub fn profiles(&self) -> &[DepthProfile] {
        &self.profiles
    }

    /// Statistics of the analyzed trace (`N`, `N'`, max misses).
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// The engine that produced this exploration: [`Engine::Streamed`] or
    /// [`Engine::DepthFirst`], never [`Engine::Auto`].
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Resolves `budget` against the trace's maximum miss count.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidBudgetFraction`] if a fractional budget is
    /// outside `0.0..=1.0` or not finite.
    pub fn resolve_budget(&self, budget: MissBudget) -> Result<u64, ExploreError> {
        match budget {
            MissBudget::Absolute(k) => Ok(k),
            MissBudget::FractionOfMax(f) => {
                if !f.is_finite() || !(0.0..=1.0).contains(&f) {
                    return Err(ExploreError::InvalidBudgetFraction(f));
                }
                Ok(self.stats.budget(f))
            }
        }
    }

    /// The exact avoidable-miss count of an arbitrary `(depth, assoc)`
    /// pair, or `None` if the depth was not explored. This is the *inverse*
    /// query to exploration: the smallest budget under which `(depth,
    /// assoc)` is acceptable.
    ///
    /// # Examples
    ///
    /// ```
    /// use cachedse_core::DesignSpaceExplorer;
    /// use cachedse_trace::paper_running_example;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let trace = paper_running_example();
    /// let exploration = DesignSpaceExplorer::new(&trace).prepare()?;
    /// // Section 2.3: depth 4, direct mapped -> 4 misses.
    /// assert_eq!(exploration.misses_at(4, 1), Some(4));
    /// assert_eq!(exploration.misses_at(4, 2), Some(0));
    /// assert_eq!(exploration.misses_at(3, 1), None); // not a power of two
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn misses_at(&self, depth: u32, assoc: u32) -> Option<u64> {
        self.profiles
            .iter()
            .find(|p| p.depth() == depth)
            .map(|p| p.misses_at(assoc))
    }

    /// The associativity at which `depth` reaches zero avoidable misses
    /// (the paper's `A_zero`), or `None` if the depth was not explored.
    #[must_use]
    pub fn zero_miss_associativity(&self, depth: u32) -> Option<u32> {
        self.profiles
            .iter()
            .find(|p| p.depth() == depth)
            .map(|p| p.min_associativity(0))
    }

    /// The optimal cache instances under `budget`: for every depth, the
    /// minimum associativity whose miss count is within budget.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidBudgetFraction`] as in
    /// [`resolve_budget`](Self::resolve_budget).
    pub fn result(&self, budget: MissBudget) -> Result<ExplorationResult, ExploreError> {
        let k = self.resolve_budget(budget)?;
        let pairs: Vec<DesignPoint> = self
            .profiles
            .iter()
            .map(|p| DesignPoint {
                depth: p.depth(),
                associativity: p.min_associativity(k),
            })
            .collect();
        let misses = self
            .profiles
            .iter()
            .zip(&pairs)
            .map(|(p, pair)| p.misses_at(pair.associativity))
            .collect();
        // Doubling the depth splits every row, so conflict sets only shrink
        // and the required associativity never grows. The external
        // `cachedse-check` crate re-verifies this (plus simulator replay)
        // from outside; this hook makes every debug run self-checking.
        debug_assert!(
            pairs
                .windows(2)
                .all(|w| w[1].associativity <= w[0].associativity),
            "frontier is not monotone in depth: {pairs:?}"
        );
        Ok(ExplorationResult {
            pairs,
            misses,
            budget: k,
            stats: self.stats,
        })
    }
}

/// The output of one exploration: the paper's set of optimal cache instances
/// for one miss budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplorationResult {
    pairs: Vec<DesignPoint>,
    misses: Vec<u64>,
    budget: u64,
    stats: TraceStats,
}

impl ExplorationResult {
    /// The optimal `(depth, associativity)` pairs, ordered by increasing
    /// depth.
    #[must_use]
    pub fn pairs(&self) -> &[DesignPoint] {
        &self.pairs
    }

    /// The resolved absolute miss budget `K`.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Statistics of the analyzed trace.
    #[must_use]
    pub fn stats(&self) -> TraceStats {
        self.stats
    }

    /// The minimum associativity at `depth`, if that depth was explored.
    #[must_use]
    pub fn associativity_of(&self, depth: u32) -> Option<u32> {
        self.pairs
            .iter()
            .find(|p| p.depth == depth)
            .map(|p| p.associativity)
    }

    /// The predicted miss count of the chosen configuration at `depth`.
    #[must_use]
    pub fn misses_of(&self, depth: u32) -> Option<u64> {
        self.pairs
            .iter()
            .position(|p| p.depth == depth)
            .map(|i| self.misses[i])
    }

    /// The smallest-capacity configuration meeting the budget (ties broken
    /// toward the shallower cache, which has the cheaper row decoder).
    #[must_use]
    pub fn smallest(&self) -> Option<DesignPoint> {
        self.pairs
            .iter()
            .copied()
            .min_by_key(|p| (p.size_lines(), p.depth))
    }

    /// The capacity/miss Pareto frontier of the result: configurations not
    /// dominated by any other (smaller-or-equal capacity *and* fewer
    /// misses). Returned in increasing capacity (and strictly decreasing
    /// miss) order — the designer's real shortlist.
    ///
    /// # Examples
    ///
    /// ```
    /// use cachedse_core::{DesignSpaceExplorer, MissBudget};
    /// use cachedse_trace::paper_running_example;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let trace = paper_running_example();
    /// let result = DesignSpaceExplorer::new(&trace)
    ///     .explore(MissBudget::Absolute(0))?;
    /// // All configurations have zero misses, so only the smallest
    /// // capacity survives.
    /// assert_eq!(result.pareto_frontier().len(), 1);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn pareto_frontier(&self) -> Vec<DesignPoint> {
        let mut indexed: Vec<(u64, u64, DesignPoint)> = self
            .pairs
            .iter()
            .zip(&self.misses)
            .map(|(&p, &m)| (p.size_lines(), m, p))
            .collect();
        indexed.sort_by_key(|&(size, misses, p)| (size, misses, p.depth));
        let mut frontier: Vec<DesignPoint> = Vec::new();
        let mut best_misses = u64::MAX;
        for (_, misses, point) in indexed {
            if misses < best_misses {
                frontier.push(point);
                best_misses = misses;
            }
        }
        frontier
    }

    /// Renders the result as an aligned text table (depth, associativity,
    /// size in lines, predicted misses).
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>8} {:>6} {:>10} {:>10}",
            "depth", "assoc", "lines", "misses"
        );
        for (pair, misses) in self.pairs.iter().zip(&self.misses) {
            let _ = writeln!(
                out,
                "{:>8} {:>6} {:>10} {:>10}",
                pair.depth,
                pair.associativity,
                pair.size_lines(),
                misses
            );
        }
        out
    }
}

/// The analyzed design space of an *application set* sharing one cache:
/// each trace's prelude is run exactly once, and any number of budgets can
/// then be folded over the retained [`Exploration`]s.
///
/// An embedded SoC typically runs several applications over one cache; the
/// combined requirement at each depth is simply the maximum of the
/// per-application requirements (misses are monotone non-increasing in
/// associativity), and it is minimal because one of the applications needed
/// that many ways.
///
/// # Examples
///
/// ```
/// use cachedse_core::{MissBudget, SharedExploration};
/// use cachedse_trace::generate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app_a = generate::loop_pattern(0, 32, 50);
/// let app_b = generate::strided(0, 8, 16, 50);
/// let shared = SharedExploration::prepare(&[&app_a, &app_b])?;
/// // One prelude per trace, arbitrarily many budget sweeps:
/// let strict = shared.result(MissBudget::Absolute(0))?;
/// let loose = shared.result(MissBudget::FractionOfMax(0.20))?;
/// assert_eq!(strict.len(), loose.len());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct SharedExploration {
    explorations: Vec<Exploration>,
}

impl SharedExploration {
    /// Analyzes every trace once, over the address width of the widest
    /// trace (so all frontiers cover the same depths).
    ///
    /// # Errors
    ///
    /// [`ExploreError::EmptyTrace`] if `traces` is empty or any trace is
    /// empty; [`ExploreError::IndexBitsTooLarge`] as in
    /// [`prepare_stripped`].
    pub fn prepare(traces: &[&Trace]) -> Result<Self, ExploreError> {
        let bits = traces
            .iter()
            .map(|t| t.address_bits())
            .max()
            .ok_or(ExploreError::EmptyTrace)?;
        let explorations = traces
            .iter()
            .map(|trace| {
                if trace.is_empty() {
                    return Err(ExploreError::EmptyTrace);
                }
                let stripped = StrippedTrace::from_trace(trace);
                prepare_stripped(&stripped, Some(bits), Engine::Auto, None)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { explorations })
    }

    /// The per-trace explorations, in input order.
    #[must_use]
    pub fn explorations(&self) -> &[Exploration] {
        &self.explorations
    }

    /// The per-depth minimum associativity such that **every** trace
    /// individually meets `budget` (fractional budgets resolve against each
    /// trace's own maximum): the max-fold of the per-application frontiers.
    ///
    /// # Errors
    ///
    /// [`ExploreError::InvalidBudgetFraction`] as in
    /// [`Exploration::result`].
    pub fn result(&self, budget: MissBudget) -> Result<Vec<DesignPoint>, ExploreError> {
        let mut combined: Vec<DesignPoint> = Vec::new();
        for exploration in &self.explorations {
            let result = exploration.result(budget)?;
            if combined.is_empty() {
                combined = result.pairs().to_vec();
            } else {
                for (c, p) in combined.iter_mut().zip(result.pairs()) {
                    debug_assert_eq!(c.depth, p.depth);
                    c.associativity = c.associativity.max(p.associativity);
                }
            }
        }
        Ok(combined)
    }
}

/// One-shot shared-cache exploration: [`SharedExploration::prepare`]
/// followed by a single [`SharedExploration::result`]. Callers sweeping
/// several budgets should hold on to a [`SharedExploration`] instead, which
/// runs each trace's prelude only once.
///
/// # Errors
///
/// [`ExploreError::EmptyTrace`] if `traces` is empty or any trace is empty;
/// budget errors as in [`DesignSpaceExplorer::explore`].
///
/// # Examples
///
/// ```
/// use cachedse_core::{explore_shared, MissBudget};
/// use cachedse_trace::generate;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let app_a = generate::loop_pattern(0, 32, 50);
/// let app_b = generate::strided(0, 8, 16, 50);
/// let shared = explore_shared(&[&app_a, &app_b], MissBudget::Absolute(0))?;
/// assert!(!shared.is_empty());
/// # Ok(())
/// # }
/// ```
pub fn explore_shared(
    traces: &[&Trace],
    budget: MissBudget,
) -> Result<Vec<DesignPoint>, ExploreError> {
    SharedExploration::prepare(traces)?.result(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postlude;
    use cachedse_trace::{generate, paper_running_example};

    #[test]
    fn both_engines_agree() {
        let trace = generate::working_set_phases(4, 300, 40, 3);
        let stripped = StrippedTrace::from_trace(&trace);
        let reference = postlude::materialized_profiles(&stripped, stripped.address_bits());
        for engine in [Engine::Auto, Engine::Streamed, Engine::DepthFirst] {
            let exploration = DesignSpaceExplorer::new(&trace)
                .engine(engine)
                .prepare()
                .unwrap();
            assert_eq!(exploration.profiles(), reference, "{engine}");
        }
    }

    #[test]
    fn borrowed_artifact_entry_points_match_owning_pipeline() {
        let trace = generate::working_set_phases(3, 400, 32, 11);
        let stripped = StrippedTrace::from_trace(&trace);
        let max_bits = stripped.address_bits();

        let owning = DesignSpaceExplorer::new(&trace).prepare().unwrap();
        let via_stripped = prepare_stripped(&stripped, None, Engine::default(), None).unwrap();
        let via_dfs =
            prepare_stripped(&stripped, Some(max_bits), Engine::DepthFirst, None).unwrap();
        assert_eq!(via_dfs.engine(), Engine::DepthFirst);
        assert_eq!(via_dfs.profiles(), owning.profiles());
        assert_eq!(
            owning.profiles(),
            postlude::materialized_profiles(&stripped, max_bits)
        );

        for budget in [MissBudget::Absolute(0), MissBudget::FractionOfMax(0.10)] {
            let a = owning.result(budget).unwrap();
            let b = via_stripped.result(budget).unwrap();
            let c = via_dfs.result(budget).unwrap();
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }

    #[test]
    fn borrowed_artifact_entry_points_propagate_errors() {
        let empty = StrippedTrace::from_trace(&Trace::new());
        assert_eq!(
            prepare_stripped(&empty, None, Engine::default(), None).unwrap_err(),
            ExploreError::EmptyTrace
        );
        let stripped = StrippedTrace::from_trace(&paper_running_example());
        assert_eq!(
            prepare_stripped(&stripped, Some(32), Engine::default(), None).unwrap_err(),
            ExploreError::IndexBitsTooLarge(32)
        );
        assert_eq!(
            prepare_stripped(&empty, None, Engine::DepthFirst, None).unwrap_err(),
            ExploreError::EmptyTrace
        );
        assert_eq!(
            prepare_stripped(&stripped, Some(32), Engine::DepthFirst, None).unwrap_err(),
            ExploreError::IndexBitsTooLarge(32)
        );
    }

    #[test]
    fn empty_trace_is_an_error() {
        let trace = Trace::new();
        assert_eq!(
            DesignSpaceExplorer::new(&trace)
                .explore(MissBudget::Absolute(0))
                .unwrap_err(),
            ExploreError::EmptyTrace
        );
    }

    #[test]
    fn invalid_fraction_is_an_error() {
        let trace = paper_running_example();
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = DesignSpaceExplorer::new(&trace)
                .explore(MissBudget::FractionOfMax(bad))
                .unwrap_err();
            assert!(
                matches!(err, ExploreError::InvalidBudgetFraction(_)),
                "{bad}"
            );
        }
    }

    #[test]
    fn too_many_index_bits_is_an_error() {
        let trace = paper_running_example();
        assert_eq!(
            DesignSpaceExplorer::new(&trace)
                .max_index_bits(32)
                .explore(MissBudget::Absolute(0))
                .unwrap_err(),
            ExploreError::IndexBitsTooLarge(32)
        );
    }

    #[test]
    fn paper_example_zero_budget() {
        let trace = paper_running_example();
        let result = DesignSpaceExplorer::new(&trace)
            .explore(MissBudget::Absolute(0))
            .unwrap();
        let pairs: Vec<(u32, u32)> = result
            .pairs()
            .iter()
            .map(|p| (p.depth, p.associativity))
            .collect();
        assert_eq!(pairs, vec![(1, 5), (2, 3), (4, 2), (8, 2), (16, 1)]);
        assert_eq!(result.misses_of(2), Some(0));
        assert_eq!(result.associativity_of(64), None);
    }

    #[test]
    fn budgets_relax_requirements() {
        let trace = paper_running_example();
        let exploration = DesignSpaceExplorer::new(&trace).prepare().unwrap();
        // Max misses of the running example is 5 (Tables 5-style stats).
        assert_eq!(exploration.stats().max_misses, 5);
        let strict = exploration.result(MissBudget::Absolute(0)).unwrap();
        let loose = exploration.result(MissBudget::FractionOfMax(1.0)).unwrap();
        assert_eq!(loose.budget(), 5);
        for (s, l) in strict.pairs().iter().zip(loose.pairs()) {
            assert!(l.associativity <= s.associativity);
        }
        // With the full budget a direct-mapped depth-1 cache is acceptable.
        assert_eq!(loose.associativity_of(1), Some(1));
    }

    #[test]
    fn smallest_picks_minimum_capacity() {
        let trace = paper_running_example();
        let result = DesignSpaceExplorer::new(&trace)
            .explore(MissBudget::Absolute(0))
            .unwrap();
        // Candidates: 1x5=5, 2x3=6, 4x2=8, 8x2=16, 16x1=16 lines.
        assert_eq!(
            result.smallest(),
            Some(DesignPoint {
                depth: 1,
                associativity: 5
            })
        );
    }

    #[test]
    fn max_index_bits_limits_depths() {
        let trace = paper_running_example();
        let result = DesignSpaceExplorer::new(&trace)
            .max_index_bits(2)
            .explore(MissBudget::Absolute(0))
            .unwrap();
        assert_eq!(result.pairs().len(), 3);
        assert_eq!(result.pairs().last().unwrap().depth, 4);
    }

    #[test]
    fn table_renders_every_depth() {
        let trace = paper_running_example();
        let result = DesignSpaceExplorer::new(&trace)
            .explore(MissBudget::Absolute(0))
            .unwrap();
        let table = result.table();
        assert_eq!(table.lines().count(), 1 + result.pairs().len());
        assert!(table.contains("depth"));
    }

    #[test]
    fn engine_display() {
        assert_eq!(Engine::Auto.to_string(), "auto");
        assert_eq!(Engine::Streamed.to_string(), "streamed");
        assert_eq!(Engine::DepthFirst.to_string(), "depth-first");
    }

    /// The default picks per trace; an exploration records what ran, and
    /// one claiming `Auto` cannot be reassembled.
    #[test]
    fn auto_is_the_default_engine_and_never_recorded() {
        assert_eq!(Engine::default(), Engine::Auto);
        let exploration = DesignSpaceExplorer::new(&paper_running_example())
            .prepare()
            .unwrap();
        let (profiles, stats) = (exploration.profiles().to_vec(), exploration.stats());
        assert!(Exploration::from_parts(profiles.clone(), stats, Engine::Auto).is_err());
        let rebuilt = Exploration::from_parts(profiles, stats, exploration.engine()).unwrap();
        assert_eq!(rebuilt, exploration);
        assert_ne!(rebuilt.engine(), Engine::Auto);
    }

    /// A loop reuses each address after a short span, so the fold is cheap;
    /// uniform accesses over a large space reuse after long spans, so
    /// depth-first wins. `Auto` reports what it ran.
    #[test]
    fn auto_resolves_per_trace() {
        let looped = generate::loop_pattern(0, 32, 50);
        let random = generate::uniform_random(20_000, 1 << 14, 3);
        for (trace, expected) in [(looped, Engine::Streamed), (random, Engine::DepthFirst)] {
            let stripped = StrippedTrace::from_trace(&trace);
            let auto = prepare_stripped(&stripped, None, Engine::Auto, None).unwrap();
            assert_eq!(auto.engine(), expected);
            let pinned = prepare_stripped(&stripped, None, expected, None).unwrap();
            assert_eq!(auto, pinned);
        }
    }

    #[test]
    fn inverse_queries() {
        let trace = paper_running_example();
        let exploration = DesignSpaceExplorer::new(&trace).prepare().unwrap();
        assert_eq!(exploration.misses_at(1, 1), Some(5));
        assert_eq!(exploration.misses_at(2, 3), Some(0));
        assert_eq!(exploration.misses_at(64, 1), None);
        assert_eq!(exploration.zero_miss_associativity(2), Some(3));
        assert_eq!(exploration.zero_miss_associativity(16), Some(1));
        assert_eq!(exploration.zero_miss_associativity(5), None);
    }

    #[test]
    fn pareto_frontier_drops_dominated_points() {
        let trace = generate::working_set_phases(4, 400, 48, 19);
        let exploration = DesignSpaceExplorer::new(&trace).prepare().unwrap();
        let result = exploration.result(MissBudget::FractionOfMax(0.20)).unwrap();
        let frontier = result.pareto_frontier();
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= result.pairs().len());
        // Frontier points are strictly increasing in size and strictly
        // decreasing in misses.
        let misses_of = |p: &DesignPoint| exploration.misses_at(p.depth, p.associativity).unwrap();
        for pair in frontier.windows(2) {
            assert!(pair[0].size_lines() < pair[1].size_lines());
            assert!(misses_of(&pair[0]) > misses_of(&pair[1]));
        }
        // No point in the full result dominates a frontier point.
        for f in &frontier {
            for p in result.pairs() {
                let dominates = p.size_lines() <= f.size_lines() && misses_of(p) < misses_of(f);
                assert!(!dominates, "{p} dominates frontier point {f}");
            }
        }
    }

    #[test]
    fn shared_exploration_covers_every_application() {
        use cachedse_sim::{simulate, CacheConfig};
        let apps = [
            generate::loop_pattern(0, 48, 40),
            generate::strided(5, 16, 24, 30),
            generate::uniform_random(1_500, 128, 3),
        ];
        let refs: Vec<&Trace> = apps.iter().collect();
        let budget = 25u64;
        let shared = explore_shared(&refs, MissBudget::Absolute(budget)).unwrap();
        for point in &shared {
            let config = CacheConfig::lru(point.depth, point.associativity).unwrap();
            for app in &apps {
                assert!(
                    simulate(app, &config).avoidable_misses() <= budget,
                    "{point} violates an application's budget"
                );
            }
            // Minimality: one way less fails at least one application.
            if point.associativity > 1 {
                let below = CacheConfig::lru(point.depth, point.associativity - 1).unwrap();
                assert!(
                    apps.iter()
                        .any(|app| simulate(app, &below).avoidable_misses() > budget),
                    "{point} is not minimal for the set"
                );
            }
        }
    }

    #[test]
    fn shared_exploration_of_nothing_is_an_error() {
        assert_eq!(
            explore_shared(&[], MissBudget::Absolute(0)).unwrap_err(),
            ExploreError::EmptyTrace
        );
        assert_eq!(
            SharedExploration::prepare(&[]).unwrap_err(),
            ExploreError::EmptyTrace
        );
    }

    /// One `prepare()` serves many budgets, matching the one-shot helper
    /// budget for budget.
    #[test]
    fn shared_exploration_reuses_preludes_across_budgets() {
        let apps = [
            generate::loop_pattern(0, 48, 40),
            generate::working_set_phases(3, 200, 24, 7),
        ];
        let refs: Vec<&Trace> = apps.iter().collect();
        let shared = SharedExploration::prepare(&refs).unwrap();
        assert_eq!(shared.explorations().len(), refs.len());
        for budget in [
            MissBudget::Absolute(0),
            MissBudget::Absolute(10),
            MissBudget::FractionOfMax(0.15),
        ] {
            assert_eq!(
                shared.result(budget).unwrap(),
                explore_shared(&refs, budget).unwrap()
            );
        }
    }
}
