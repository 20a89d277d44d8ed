//! Concurrent forks of one epoch.
//!
//! Epochs share append-only rating-column buffers: an append claims the
//! slots past its parent's records with one compare-exchange, and every
//! other fork of the same parent loses the claim and copies. Several
//! threads fork one table at the same instant, each with its own batch,
//! then append once more to their fork; every result must hold exactly the
//! parent's records followed by its own batches, and the parent must read
//! as it did before. CI runs this binary many times over, since a lost
//! race shows only occasionally.

use std::sync::Barrier;
use std::thread;

use subdex_store::{DimId, RatingDraft, RatingTable, RatingTableBuilder};

const THREADS: usize = 4;
const ROUNDS: usize = 48;
const REVIEWERS: usize = 64;
const ITEMS: usize = 32;
const DIMS: usize = 2;

fn batch(thread: usize, round: usize, part: usize, len: usize) -> Vec<RatingDraft> {
    (0..len)
        .map(|k| {
            let tag = (thread * 7 + round * 3 + part * 5 + k) as u32;
            RatingDraft::new(
                tag % REVIEWERS as u32,
                (tag / 3) % ITEMS as u32,
                vec![1 + (tag % 5) as u8, 1 + ((tag / 5) % 5) as u8],
            )
        })
        .collect()
}

/// Tables with room to spare in their columns, so the winning fork of each
/// round writes in place while the others copy.
fn parent(round: usize) -> RatingTable {
    let dims = (0..DIMS).map(|d| format!("d{d}")).collect();
    let mut b = RatingTableBuilder::new(dims, 5);
    for d in batch(THREADS, round, 0, 70 + round) {
        b.push(d.reviewer, d.item, &d.scores);
    }
    b.build(REVIEWERS, ITEMS)
}

/// The records of a table as plain rows.
fn rows(t: &RatingTable) -> Vec<(u32, u32, Vec<u8>)> {
    (0..t.len() as u32)
        .map(|rec| {
            let scores = (0..DIMS).map(|d| t.score(rec, DimId(d as u16))).collect();
            (t.reviewer_of(rec), t.item_of(rec), scores)
        })
        .collect()
}

#[test]
fn concurrent_forks_of_one_epoch_each_see_only_their_own_batch() {
    let parents: Vec<RatingTable> = (0..ROUNDS).map(parent).collect();
    let before: Vec<_> = parents.iter().map(rows).collect();
    let start = Barrier::new(THREADS);
    let forks: Vec<Vec<RatingTable>> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (parents, start) = (&parents, &start);
                s.spawn(move || {
                    parents
                        .iter()
                        .enumerate()
                        .map(|(round, p)| {
                            let first = batch(t, round, 1, 1 + (t + round) % 9);
                            let second = batch(t, round, 2, 3);
                            start.wait();
                            p.with_appended(&first, REVIEWERS, ITEMS)
                                .with_appended(&second, REVIEWERS, ITEMS)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (t, tables) in forks.iter().enumerate() {
        for (round, table) in tables.iter().enumerate() {
            let mut expect = before[round].clone();
            for part in [
                batch(t, round, 1, 1 + (t + round) % 9),
                batch(t, round, 2, 3),
            ] {
                expect.extend(part.into_iter().map(|d| (d.reviewer, d.item, d.scores)));
            }
            assert_eq!(rows(table), expect, "thread {t}, round {round}");
            assert_eq!(
                table.reviewer_column().len(),
                table.len(),
                "thread {t}, round {round}"
            );
        }
    }
    for (round, p) in parents.iter().enumerate() {
        assert_eq!(rows(p), before[round], "parent of round {round} changed");
    }
}
