//! Service-level metrics: lock-free counters updated on the hot path and a
//! consistent [`MetricsSnapshot`] for reporting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use subdex_core::{Materialization, SelectionStats, StepStats};
use subdex_persist::PersistStats;
use subdex_store::{CacheStats, IndexStats};

/// Upper bounds (inclusive, microseconds) of the step-latency histogram
/// buckets; the last bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 8] = [
    250,
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_024_000,
    u64::MAX,
];

/// Shared atomic counters; every method is safe to call concurrently.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    served: AtomicU64,
    rejected: AtomicU64,
    panicked: AtomicU64,
    queue_depth_hwm: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_US.len()],
    /// Cumulative time steps spent in phase scans, in microseconds.
    scan_time_us: AtomicU64,
    /// Group-materialization paths across served steps (see
    /// [`Materialization`]).
    groups_derived: AtomicU64,
    groups_walked: AtomicU64,
    groups_probed: AtomicU64,
    groups_skipped: AtomicU64,
    records_filtered: AtomicU64,
    /// Selection-phase distance breakdown across served steps (see
    /// [`SelectionStats`]).
    dist_exact_solves: AtomicU64,
    dist_pruned_mixture: AtomicU64,
    dist_pruned_matrix: AtomicU64,
    dist_cache_hits: AtomicU64,
    previews_skipped: AtomicU64,
    /// Cumulative wall-clock time steps spent in diverse selection, in
    /// microseconds.
    select_time_us: AtomicU64,
}

impl ServiceMetrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The single instrumentation point for a completed step: records the
    /// service latency (queue wait plus execution) and folds the step's
    /// whole [`StepStats`] aggregate — phase-scan time, materialization
    /// paths, and the selection-distance breakdown — into the counters.
    pub fn record_step(&self, latency: Duration, stats: &StepStats) {
        self.record_served(latency);
        self.record_scan_time(stats.phases.scan);
        self.record_materialization(&stats.materialization);
        self.record_selection(&stats.selection);
    }

    /// Records one completed step and its service latency (queue wait plus
    /// execution).
    fn record_served(&self, latency: Duration) {
        self.served.fetch_add(1, Ordering::Relaxed);
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .expect("last bucket is unbounded");
        self.latency_buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one submission rejected by backpressure.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one step that panicked (contained by its worker; the session
    /// was removed).
    pub fn record_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates the phase-scan component of one served step
    /// (`StepStats::phases.scan`), so operators can see how much of the
    /// service's work is the scan kernels versus everything else.
    fn record_scan_time(&self, scan: Duration) {
        let us = scan.as_micros().min(u128::from(u64::MAX)) as u64;
        self.scan_time_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Accumulates one served step's group-materialization counters
    /// (`StepStats::materialization`): how many groups were derived from
    /// the step's own columns, walked, index-probed, or skipped as provably
    /// empty.
    fn record_materialization(&self, m: &Materialization) {
        self.groups_derived.fetch_add(m.derived, Ordering::Relaxed);
        self.groups_walked.fetch_add(m.walked, Ordering::Relaxed);
        self.groups_probed.fetch_add(m.probed, Ordering::Relaxed);
        self.groups_skipped
            .fetch_add(m.skipped_empty, Ordering::Relaxed);
        self.records_filtered
            .fetch_add(m.records_filtered, Ordering::Relaxed);
    }

    /// Accumulates one served step's selection-phase counters
    /// (`StepStats::selection`): how the GMM distance evaluations resolved
    /// — exact transportation solves, bound-pruned pairs, and
    /// distance-cache hits — the recommendation previews skipped, and time
    /// spent selecting.
    fn record_selection(&self, s: &SelectionStats) {
        self.dist_exact_solves
            .fetch_add(s.exact_solves, Ordering::Relaxed);
        self.dist_pruned_mixture
            .fetch_add(s.pruned_mixture, Ordering::Relaxed);
        self.dist_pruned_matrix
            .fetch_add(s.pruned_matrix, Ordering::Relaxed);
        self.dist_cache_hits
            .fetch_add(s.cache_hits, Ordering::Relaxed);
        self.previews_skipped
            .fetch_add(s.previews_skipped, Ordering::Relaxed);
        let us = s.select_time.as_micros().min(u128::from(u64::MAX)) as u64;
        self.select_time_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Folds an observed queue depth into the high-water mark.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.queue_depth_hwm
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// A snapshot of the counters; `dist_cache` carries the shared distance
    /// cache's statistics when the service runs with it enabled. `persist`
    /// carries the durable store's counters when the service was
    /// warm-started from one, and `index` the current database's
    /// compressed-index census and routing counters.
    pub fn snapshot(
        &self,
        dist_cache: Option<CacheStats>,
        persist: Option<PersistStats>,
        index: Option<IndexStats>,
    ) -> MetricsSnapshot {
        MetricsSnapshot {
            requests_served: self.served.load(Ordering::Relaxed),
            requests_rejected: self.rejected.load(Ordering::Relaxed),
            steps_panicked: self.panicked.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed) as usize,
            latency_buckets: LATENCY_BUCKETS_US
                .iter()
                .zip(&self.latency_buckets)
                .map(|(&bound, count)| (bound, count.load(Ordering::Relaxed)))
                .collect(),
            scan_time_total: Duration::from_micros(self.scan_time_us.load(Ordering::Relaxed)),
            materialization: Materialization {
                derived: self.groups_derived.load(Ordering::Relaxed),
                walked: self.groups_walked.load(Ordering::Relaxed),
                probed: self.groups_probed.load(Ordering::Relaxed),
                cached: 0,
                skipped_empty: self.groups_skipped.load(Ordering::Relaxed),
                records_filtered: self.records_filtered.load(Ordering::Relaxed),
            },
            selection: SelectionStats {
                exact_solves: self.dist_exact_solves.load(Ordering::Relaxed),
                pruned_mixture: self.dist_pruned_mixture.load(Ordering::Relaxed),
                pruned_matrix: self.dist_pruned_matrix.load(Ordering::Relaxed),
                cache_hits: self.dist_cache_hits.load(Ordering::Relaxed),
                previews_skipped: self.previews_skipped.load(Ordering::Relaxed),
                select_time: Duration::from_micros(self.select_time_us.load(Ordering::Relaxed)),
            },
            cache: None,
            dist_cache,
            persist,
            index,
        }
    }
}

/// Point-in-time view of service health; see [`ServiceMetrics::snapshot`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Steps executed to completion.
    pub requests_served: u64,
    /// Submissions refused because the queue was full.
    pub requests_rejected: u64,
    /// Steps that panicked; each cost its request and its session, not the
    /// worker that ran it.
    pub steps_panicked: u64,
    /// Deepest the submit queue has ever been.
    pub queue_depth_hwm: usize,
    /// `(upper bound in µs, count)` per latency bucket; the final bound is
    /// `u64::MAX` (overflow bucket).
    pub latency_buckets: Vec<(u64, u64)>,
    /// Total time served steps spent in phase scans (µs resolution).
    pub scan_time_total: Duration,
    /// Aggregate group-materialization paths across served steps.
    pub materialization: Materialization,
    /// Aggregate selection-phase distance breakdown across served steps.
    pub selection: SelectionStats,
    /// Always `None`: no rating group is shared across sessions. Kept only
    /// because `benchmark/README.md` lists it as public surface.
    pub cache: Option<CacheStats>,
    /// Shared distance-cache statistics. A service always fills them; the
    /// `Option` remains because `benchmark/` reads the field through
    /// `and_then`.
    pub dist_cache: Option<CacheStats>,
    /// Durable-store counters (None when the service is in-memory only).
    pub persist: Option<PersistStats>,
    /// Compressed-index census and routing counters of the current
    /// database snapshot.
    pub index: Option<IndexStats>,
}

impl MetricsSnapshot {
    /// Total latency observations (equals `requests_served`).
    pub fn latency_count(&self) -> u64 {
        self.latency_buckets.iter().map(|&(_, n)| n).sum()
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "served {} | rejected {} | panicked {} | queue hwm {} | scan {}µs",
            self.requests_served,
            self.requests_rejected,
            self.steps_panicked,
            self.queue_depth_hwm,
            self.scan_time_total.as_micros()
        )?;
        let m = &self.materialization;
        if m.total() > 0 {
            writeln!(
                f,
                "groups: {} derived / {} walked / {} probed / {} skipped \
                 ({} records filtered)",
                m.derived, m.walked, m.probed, m.skipped_empty, m.records_filtered
            )?;
        }
        let s = &self.selection;
        if s.evaluations() > 0 {
            writeln!(
                f,
                "selection: {} exact / {} pruned ({} mixture, {} matrix) / {} cache hits, {}µs, \
                 {} previews skipped",
                s.exact_solves,
                s.pruned(),
                s.pruned_mixture,
                s.pruned_matrix,
                s.cache_hits,
                s.select_time.as_micros(),
                s.previews_skipped
            )?;
        }
        if let Some(c) = &self.dist_cache {
            writeln!(
                f,
                "dist-cache: {} hits / {} misses ({:.1}% hit rate), {} entries, {} bytes, \
                 {} evicted, {} rejected",
                c.hits,
                c.misses,
                100.0 * c.hit_rate(),
                c.entries,
                c.resident_bytes,
                c.evictions,
                c.rejected_inserts
            )?;
        }
        if let Some(i) = &self.index {
            writeln!(
                f,
                "index: {} arrays / {} bitmaps, {} bytes ({} flat), \
                 {} intersections, routes {} walk / {} probe",
                i.array_containers,
                i.bitmap_containers,
                i.resident_bytes,
                i.flat_bytes,
                i.intersections,
                i.route_walk,
                i.route_probe
            )?;
        }
        if let Some(p) = &self.persist {
            writeln!(
                f,
                "persist: snapshot {} bytes, load {}µs, wal replayed {} batches / {} records, \
                 {} appended ({} dirty), {} checkpoints, epoch {}",
                p.snapshot_bytes,
                p.load_micros,
                p.wal_replayed_batches,
                p.wal_replayed_records,
                p.appended_records,
                p.dirty_records,
                p.checkpoints,
                p.epoch
            )?;
        }
        write!(f, "latency:")?;
        for &(bound, count) in &self.latency_buckets {
            if bound == u64::MAX {
                write!(f, " inf:{count}")?;
            } else {
                write!(f, " ≤{bound}µs:{count}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_lands_in_one_bucket() {
        let m = ServiceMetrics::new();
        m.record_served(Duration::from_micros(500));
        m.record_served(Duration::from_secs(10)); // overflow bucket
        let snap = m.snapshot(None, None, None);
        assert_eq!(snap.requests_served, 2);
        assert_eq!(snap.latency_count(), 2);
        assert_eq!(snap.latency_buckets[1], (1_000, 1));
        assert_eq!(snap.latency_buckets.last().unwrap().1, 1);
    }

    #[test]
    fn scan_time_accumulates() {
        let m = ServiceMetrics::new();
        m.record_scan_time(Duration::from_micros(300));
        m.record_scan_time(Duration::from_micros(700));
        let snap = m.snapshot(None, None, None);
        assert_eq!(snap.scan_time_total, Duration::from_micros(1_000));
        assert!(snap.to_string().contains("scan 1000µs"));
    }

    #[test]
    fn record_step_threads_the_whole_aggregate() {
        use subdex_core::PhaseTimes;
        let m = ServiceMetrics::new();
        let stats = StepStats {
            elapsed: Duration::from_micros(2_000),
            phases: PhaseTimes {
                scan: Duration::from_micros(800),
                ..PhaseTimes::default()
            },
            materialization: Materialization {
                derived: 3,
                walked: 1,
                probed: 1,
                cached: 0,
                skipped_empty: 0,
                records_filtered: 40,
            },
            selection: SelectionStats {
                exact_solves: 2,
                pruned_mixture: 1,
                pruned_matrix: 0,
                cache_hits: 1,
                previews_skipped: 0,
                select_time: Duration::from_micros(90),
            },
            ..StepStats::default()
        };
        m.record_step(Duration::from_micros(500), &stats);
        let snap = m.snapshot(None, None, None);
        assert_eq!(snap.requests_served, 1);
        assert_eq!(snap.latency_buckets[1], (1_000, 1));
        assert_eq!(snap.scan_time_total, Duration::from_micros(800));
        assert_eq!(snap.materialization.derived, 3);
        assert_eq!(snap.selection.exact_solves, 2);
        assert_eq!(snap.selection.select_time, Duration::from_micros(90));
    }

    #[test]
    fn queue_hwm_is_monotone() {
        let m = ServiceMetrics::new();
        m.observe_queue_depth(3);
        m.observe_queue_depth(9);
        m.observe_queue_depth(5);
        assert_eq!(m.snapshot(None, None, None).queue_depth_hwm, 9);
    }

    #[test]
    fn rejections_count() {
        let m = ServiceMetrics::new();
        m.record_rejected();
        m.record_rejected();
        let snap = m.snapshot(None, None, None);
        assert_eq!(snap.requests_rejected, 2);
        assert_eq!(snap.requests_served, 0);
    }

    #[test]
    fn selection_accumulates_and_renders() {
        let m = ServiceMetrics::new();
        let snap = m.snapshot(None, None, None);
        assert_eq!(snap.selection, SelectionStats::default());
        assert!(!snap.to_string().contains("selection:"));

        m.record_selection(&SelectionStats {
            exact_solves: 4,
            pruned_mixture: 2,
            pruned_matrix: 1,
            cache_hits: 3,
            previews_skipped: 2,
            select_time: Duration::from_micros(120),
        });
        m.record_selection(&SelectionStats {
            exact_solves: 1,
            pruned_mixture: 0,
            pruned_matrix: 2,
            cache_hits: 0,
            previews_skipped: 1,
            select_time: Duration::from_micros(30),
        });
        let snap = m.snapshot(None, None, None);
        assert_eq!(snap.selection.exact_solves, 5);
        assert_eq!(snap.selection.pruned(), 5);
        assert_eq!(snap.selection.cache_hits, 3);
        assert_eq!(snap.selection.select_time, Duration::from_micros(150));
        assert_eq!(snap.selection.previews_skipped, 3);
        assert!(snap
            .to_string()
            .contains("selection: 5 exact / 5 pruned (2 mixture, 3 matrix) / 3 cache hits, 150µs"));
        assert!(snap.to_string().contains("150µs, 3 previews skipped"));
    }

    #[test]
    fn materialization_accumulates_and_renders() {
        let m = ServiceMetrics::new();
        let snap = m.snapshot(None, None, None);
        assert_eq!(snap.materialization, Materialization::default());
        assert!(!snap.to_string().contains("groups:"));

        m.record_materialization(&Materialization {
            derived: 5,
            walked: 2,
            probed: 1,
            cached: 0,
            skipped_empty: 3,
            records_filtered: 400,
        });
        m.record_materialization(&Materialization {
            derived: 1,
            walked: 0,
            probed: 2,
            cached: 0,
            skipped_empty: 0,
            records_filtered: 50,
        });
        let snap = m.snapshot(None, None, None);
        assert_eq!(snap.materialization.derived, 6);
        assert_eq!(snap.materialization.walked, 2);
        assert_eq!(snap.materialization.probed, 3);
        assert_eq!(snap.materialization.skipped_empty, 3);
        assert_eq!(snap.materialization.records_filtered, 450);
        assert!(snap.to_string().contains(
            "groups: 6 derived / 2 walked / 3 probed / 3 skipped (450 records filtered)"
        ));
    }

    #[test]
    fn display_renders_index_line_only_when_present() {
        let m = ServiceMetrics::new();
        let without = m.snapshot(None, None, None).to_string();
        assert!(!without.contains("index:"));
        let with = m
            .snapshot(
                None,
                None,
                Some(IndexStats {
                    array_containers: 10,
                    bitmap_containers: 2,
                    resident_bytes: 640,
                    flat_bytes: 1_280,
                    intersections: 7,
                    route_walk: 5,
                    route_probe: 2,
                }),
            )
            .to_string();
        assert!(
            with.contains(
                "index: 10 arrays / 2 bitmaps, 640 bytes (1280 flat), \
                 7 intersections, routes 5 walk / 2 probe"
            ),
            "{with}"
        );
    }

    #[test]
    fn display_renders_cache_line_only_when_present() {
        let m = ServiceMetrics::new();
        let without = m.snapshot(None, None, None).to_string();
        assert!(!without.contains("cache:"));
        let with = m
            .snapshot(
                Some(CacheStats {
                    hits: 9,
                    misses: 1,
                    evictions: 2,
                    rejected_inserts: 1,
                    entries: 4,
                    resident_bytes: 384,
                }),
                None,
                None,
            )
            .to_string();
        assert!(with.contains("dist-cache: 9 hits / 1 misses (90.0% hit rate)"));
    }
}
