//! Property tests for the graph substrate: adjacency-map duality,
//! N-Triples round trips, pruning-view invariants, and signed-batch
//! application against a set-mirrored rebuild.

use crate::{parse_ntriples, write_ntriples, GraphDb, GraphDbBuilder, GraphError, Triple};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn arb_db() -> impl Strategy<Value = GraphDb> {
    proptest::collection::vec((0u8..15, 0u8..4, 0u8..15), 0..60).prop_map(|triples| {
        let mut b = GraphDbBuilder::new();
        for (s, p, o) in triples {
            b.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"))
                .unwrap();
        }
        b.finish()
    })
}

proptest! {
    /// Forward and backward adjacency maps are transposes of each other:
    /// `w ∈ F^a(v) ⟺ v ∈ B^a(w)`.
    #[test]
    fn adjacency_maps_are_dual(db in arb_db()) {
        for t in db.triples() {
            prop_assert!(db.out_neighbors(t.s, t.p).contains(&t.o));
            prop_assert!(db.in_neighbors(t.o, t.p).contains(&t.s));
            prop_assert!(db.contains_triple(t));
        }
        for label in 0..db.num_labels() as u32 {
            let fwd: usize = (0..db.num_nodes() as u32)
                .map(|v| db.out_neighbors(v, label).len())
                .sum();
            let bwd: usize = (0..db.num_nodes() as u32)
                .map(|v| db.in_neighbors(v, label).len())
                .sum();
            prop_assert_eq!(fwd, bwd);
            prop_assert_eq!(fwd, db.num_label_triples(label));
        }
    }

    /// Summary vectors mark exactly the nodes with incident edges.
    #[test]
    fn summaries_match_adjacency(db in arb_db()) {
        for label in 0..db.num_labels() as u32 {
            for v in 0..db.num_nodes() {
                prop_assert_eq!(
                    db.f_summary(label).get(v),
                    !db.out_neighbors(v as u32, label).is_empty()
                );
                prop_assert_eq!(
                    db.b_summary(label).get(v),
                    !db.in_neighbors(v as u32, label).is_empty()
                );
            }
        }
    }

    /// Serializing and re-parsing preserves the triple multiset at the
    /// name level.
    #[test]
    fn ntriples_round_trip(db in arb_db()) {
        let text = write_ntriples(&db);
        let db2 = parse_ntriples(&text).unwrap();
        prop_assert_eq!(db.num_triples(), db2.num_triples());
        let names = |db: &GraphDb| {
            let mut v: Vec<(String, String, String)> = db
                .triples()
                .map(|t| (
                    db.node_name(t.s).to_owned(),
                    db.label_name(t.p).to_owned(),
                    db.node_name(t.o).to_owned(),
                ))
                .collect();
            v.sort();
            v
        };
        prop_assert_eq!(names(&db), names(&db2));
    }

    /// `with_triples` behaves as a filter: the derived database contains
    /// exactly the requested subset, over the same vocabulary.
    #[test]
    fn with_triples_is_a_filter(db in arb_db(), keep_mask in proptest::collection::vec(any::<bool>(), 60)) {
        let all: Vec<Triple> = db.triples().collect();
        let kept: Vec<Triple> = all
            .iter()
            .zip(keep_mask.iter().cycle())
            .filter_map(|(t, &keep)| keep.then_some(*t))
            .collect();
        let derived = db.with_triples(&kept).unwrap();
        prop_assert_eq!(derived.num_triples(), kept.len());
        prop_assert_eq!(derived.num_nodes(), db.num_nodes());
        for t in &kept {
            prop_assert!(derived.contains_triple(*t));
        }
        for t in &all {
            if !kept.contains(t) {
                prop_assert!(!derived.contains_triple(*t));
            }
        }
    }

    /// `apply` is a signed set update: on a random batch with
    /// duplicates, inserts of present triples and deletes of absent
    /// ones, it builds the same database as `with_triples` over the
    /// set-mirrored triple list — every triple, every row of both
    /// adjacency maps, and both summaries per label. A foreign triple
    /// is rejected by both with the same error and batch position.
    #[test]
    fn apply_matches_a_set_mirrored_rebuild(
        db in arb_db(),
        insert in any::<bool>(),
        picks in proptest::collection::vec(
            (any::<bool>(), any::<u8>(), any::<u8>(), any::<u8>()),
            0..24,
        ),
        foreign in (0u8..4, 0usize..24),
    ) {
        let present: Vec<Triple> = db.triples().collect();
        let (n, labels) = (db.num_nodes() as u32, db.num_labels() as u32);
        let mut batch: Vec<Triple> = Vec::new();
        for &(reuse, s, p, o) in &picks {
            if reuse && !present.is_empty() {
                batch.push(present[s as usize % present.len()]);
            } else if n > 0 && labels > 0 {
                batch.push(Triple::new(s as u32 % n, p as u32 % labels, o as u32 % n));
            }
        }
        if let Some(&first) = batch.first() {
            batch.push(first);
        }
        // One case in four plants a foreign triple in the batch.
        if foreign.0 == 0 {
            let at = foreign.1.min(batch.len());
            batch.insert(at, Triple::new(n + at as u32, 0, 0));
            let got = db.apply(insert, &batch).unwrap_err();
            let want = db.with_triples(&batch).unwrap_err();
            prop_assert!(matches!(got, GraphError::ForeignTriple { index, .. } if index == at + 1));
            prop_assert_eq!(got, want);
            return Ok(());
        }

        let mut mirror: BTreeSet<Triple> = present.iter().copied().collect();
        for t in &batch {
            if insert {
                mirror.insert(*t);
            } else {
                mirror.remove(t);
            }
        }
        let want = db.with_triples(&mirror.into_iter().collect::<Vec<_>>()).unwrap();
        let got = db.apply(insert, &batch).unwrap();
        prop_assert_eq!(got.num_triples(), want.num_triples());
        prop_assert!(got.triples().eq(want.triples()));
        for label in 0..labels {
            prop_assert_eq!(got.f_summary(label), want.f_summary(label));
            prop_assert_eq!(got.b_summary(label), want.b_summary(label));
            for v in 0..n {
                prop_assert_eq!(got.out_neighbors(v, label), want.out_neighbors(v, label));
                prop_assert_eq!(got.in_neighbors(v, label), want.in_neighbors(v, label));
            }
        }
    }

    /// Memory accounting is consistent and grows with edges.
    #[test]
    fn memory_footprint_is_additive(db in arb_db()) {
        let total: usize = (0..db.num_labels() as u32)
            .map(|l| db.label_memory(l))
            .sum();
        prop_assert_eq!(db.memory_footprint(), total);
    }
}
