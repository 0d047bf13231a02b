//! Fidelity test: every published artifact of the paper's running example
//! (Tables 1–4, Figure 3, and the Section 2.3 walkthrough) reproduced
//! through the public API.
//!
//! Identifiers: the paper numbers references 1..=5; this workspace numbers
//! them 0..=4 in the same first-appearance order.

use cachedse::bitset::DenseBitSet;
use cachedse::core::{postlude, Bcat, DesignSpaceExplorer, Engine, MissBudget, Mrct, ZeroOneSets};
use cachedse::trace::strip::{RefId, StrippedTrace};
use cachedse::trace::{paper_running_example, stats::TraceStats};

fn set(values: &[usize]) -> DenseBitSet {
    values.iter().copied().collect()
}

#[test]
fn table_1_and_2_strip() {
    let trace = paper_running_example();
    assert_eq!(trace.len(), 10, "Table 1: N = 10");
    let stripped = StrippedTrace::from_trace(&trace);
    assert_eq!(stripped.unique_len(), 5, "Table 2: N' = 5");
    let addrs: Vec<u32> = stripped
        .unique_addresses()
        .iter()
        .map(|a| a.raw())
        .collect();
    assert_eq!(addrs, vec![0b1011, 0b1100, 0b0110, 0b0011, 0b0100]);
}

#[test]
fn table_3_zero_one_sets() {
    let stripped = StrippedTrace::from_trace(&paper_running_example());
    let zo = ZeroOneSets::from_stripped(&stripped);
    // Paper (1-based) -> ours (0-based): subtract 1 from every member.
    assert_eq!(zo.zero(0), &set(&[1, 2, 4])); // Z0 = {2,3,5}
    assert_eq!(zo.one(0), &set(&[0, 3])); // O0 = {1,4}
    assert_eq!(zo.zero(1), &set(&[1, 4])); // Z1 = {2,5}
    assert_eq!(zo.one(1), &set(&[0, 2, 3])); // O1 = {1,3,4}
    assert_eq!(zo.zero(2), &set(&[0, 3])); // Z2 = {1,4}
    assert_eq!(zo.one(2), &set(&[1, 2, 4])); // O2 = {2,3,5}
    assert_eq!(zo.zero(3), &set(&[2, 3, 4])); // Z3 = {3,4,5}
    assert_eq!(zo.one(3), &set(&[0, 1])); // O3 = {1,2}
}

#[test]
fn table_4_mrct() {
    let stripped = StrippedTrace::from_trace(&paper_running_example());
    let mrct = Mrct::build(&stripped);
    // Table 4 lists set *contents*; the table's canonical member order is
    // recency, so sort each set before comparing against the paper.
    let sets_of = |paper_id: u32| -> Vec<Vec<u32>> {
        mrct.conflict_sets(RefId::new(paper_id - 1))
            .iter()
            .map(|s| {
                let mut set: Vec<u32> = s.iter().map(|&x| x + 1).collect(); // back to 1-based
                set.sort_unstable();
                set
            })
            .collect()
    };
    assert_eq!(sets_of(1), vec![vec![2, 3, 4], vec![2, 4, 5]]);
    assert_eq!(sets_of(2), vec![vec![1, 3, 4, 5]]);
    assert_eq!(sets_of(3), vec![vec![1, 2, 4, 5]]);
    assert_eq!(sets_of(4), vec![vec![1, 2, 5]]);
    assert_eq!(sets_of(5), Vec::<Vec<u32>>::new());
}

#[test]
fn figure_3_bcat() {
    let stripped = StrippedTrace::from_trace(&paper_running_example());
    let bcat = Bcat::from_stripped(&stripped, 4);
    // Each node's member set is a range of the permutation arena; compare
    // the slices (ascending ids) against Figure 3 directly.
    let level =
        |l: u32| -> Vec<Vec<u32>> { bcat.nodes_at(l).map(|n| n.refs_slice().to_vec()).collect() };
    // Figure 3, 0-based ids.
    assert_eq!(level(1), vec![vec![1, 2, 4], vec![0, 3]]);
    assert_eq!(level(2), vec![vec![1, 4], vec![2], vec![], vec![0, 3]]);
    assert_eq!(level(3), vec![vec![], vec![1, 4], vec![0, 3], vec![]]);
    assert_eq!(level(4), vec![vec![4], vec![1], vec![3], vec![0]]);
}

#[test]
fn section_2_3_walkthrough() {
    // "for a cache of depth two with zero desired misses, we would need to
    // set the degree of associativity A equal to ... 3"
    let trace = paper_running_example();
    let result = DesignSpaceExplorer::new(&trace)
        .explore(MissBudget::Absolute(0))
        .expect("non-empty trace");
    assert_eq!(result.associativity_of(2), Some(3));
    // Level-2 nodes {2,5},{3},{},{1,4}: zero misses with A = 2.
    assert_eq!(result.associativity_of(4), Some(2));

    // The worked miss count: at depth 4 with A = 1, the rightmost node
    // S = {1,4} contributes 1's two conflicting occurrences plus 4's one;
    // node {2,5} contributes one more: 4 total.
    let stripped = StrippedTrace::from_trace(&trace);
    let bcat = Bcat::from_stripped(&stripped, 4);
    let mrct = Mrct::build(&stripped);
    let profiles = postlude::level_profiles(&bcat, &mrct, &stripped, 4);
    assert_eq!(profiles[2].misses_at(1), 4);
}

#[test]
fn stats_and_both_engines_agree_on_the_example() {
    let trace = paper_running_example();
    let stats = TraceStats::of(&trace);
    assert_eq!((stats.total, stats.unique), (10, 5));
    let stripped = StrippedTrace::from_trace(&trace);
    let reference = postlude::materialized_profiles(&stripped, stripped.address_bits());
    for engine in [Engine::Streamed, Engine::DepthFirst] {
        let exploration = DesignSpaceExplorer::new(&trace)
            .engine(engine)
            .prepare()
            .expect("valid");
        assert_eq!(exploration.profiles(), reference, "{engine}");
        for k in 0..=stats.max_misses {
            let result = exploration.result(MissBudget::Absolute(k)).expect("valid");
            cachedse::core::verify::check_result(&trace, &result).expect("verified");
        }
    }
}
