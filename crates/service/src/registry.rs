//! The session registry: many live [`ExplorationSession`]s behind one
//! thread-safe map.
//!
//! Locking is two-level. The registry map sits behind a
//! [`RwLock`], so looking a session up is a shared read;
//! each session then has its own [`Mutex`], so steps on
//! *different* sessions run fully in parallel while steps on the *same*
//! session serialize (an `ExplorationSession` is inherently sequential —
//! its seen-context evolves step by step).
//!
//! Sessions that have not been touched for a TTL are evicted by
//! [`SessionRegistry::evict_idle`]; a session currently executing a step is
//! never evicted (its slot mutex is held, and `try_lock` protects it).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError};
use std::time::{Duration, Instant};

use subdex_core::ExplorationSession;

/// Opaque handle to one registered session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

struct Slot {
    session: Mutex<ExplorationSession>,
    /// Milliseconds since the registry's clock origin at the most recent
    /// touch; written with a relaxed store so touching a session never
    /// takes a second lock, and the idle sweeper never contends with
    /// steppers.
    last_access_ms: AtomicU64,
}

/// Thread-safe registry of live exploration sessions.
pub struct SessionRegistry {
    slots: RwLock<HashMap<SessionId, Arc<Slot>>>,
    next_id: AtomicU64,
    /// Origin of the coarse millisecond clock the idle sweeper compares
    /// `last_access_ms` against.
    clock_origin: Instant,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self {
            slots: RwLock::default(),
            next_id: AtomicU64::new(0),
            clock_origin: Instant::now(),
        }
    }
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Milliseconds elapsed since the registry was created — the coarse
    /// idle clock. Millisecond resolution is far finer than any plausible
    /// session TTL.
    fn now_ms(&self) -> u64 {
        self.clock_origin.elapsed().as_millis() as u64
    }

    /// Shared access to the map. Poison is ignored here and on every
    /// session mutex: a panicking step must degrade one request, never
    /// lock every later caller out of the registry.
    fn slots(&self) -> RwLockReadGuard<'_, HashMap<SessionId, Arc<Slot>>> {
        self.slots.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Exclusive access to the map; poison is ignored as in [`Self::slots`].
    fn slots_mut(&self) -> RwLockWriteGuard<'_, HashMap<SessionId, Arc<Slot>>> {
        self.slots.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a session and returns its handle.
    pub fn insert(&self, session: ExplorationSession) -> SessionId {
        let id = SessionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let slot = Arc::new(Slot {
            session: Mutex::new(session),
            last_access_ms: AtomicU64::new(self.now_ms()),
        });
        self.slots_mut().insert(id, slot);
        id
    }

    /// Runs `f` with exclusive access to the session, refreshing its idle
    /// clock. Returns `None` if the id is unknown (never registered, or
    /// already evicted/removed).
    ///
    /// The registry read lock is released *before* `f` runs, so a slow step
    /// never blocks registration, lookup, or eviction of other sessions.
    pub fn with_session<R>(
        &self,
        id: SessionId,
        f: impl FnOnce(&mut ExplorationSession) -> R,
    ) -> Option<R> {
        let slot = Arc::clone(self.slots().get(&id)?);
        let mut session = slot.session.lock().unwrap_or_else(PoisonError::into_inner);
        slot.last_access_ms.store(self.now_ms(), Ordering::Relaxed);
        Some(f(&mut session))
    }

    /// Unregisters a session, returning whether it existed. A worker
    /// mid-step on it finishes normally (it holds the slot `Arc`).
    pub fn remove(&self, id: SessionId) -> bool {
        self.slots_mut().remove(&id).is_some()
    }

    /// Whether `id` is currently registered.
    pub fn contains(&self, id: SessionId) -> bool {
        self.slots().contains_key(&id)
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.slots().len()
    }

    /// Whether no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered session ids, in ascending creation order.
    pub fn ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self.slots().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Evicts every session idle for longer than `ttl`, returning the
    /// evicted ids. Sessions whose slot mutex is held (a step is running)
    /// are skipped — they are busy by definition, not idle.
    pub fn evict_idle(&self, ttl: Duration) -> Vec<SessionId> {
        let now_ms = self.now_ms();
        let ttl_ms = ttl.as_millis() as u64;
        let mut evicted = Vec::new();
        let mut slots = self.slots_mut();
        slots.retain(|&id, slot| {
            // A held session lock means a step is in flight right now.
            let _busy_guard = match slot.session.try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(p)) => p.into_inner(),
                Err(TryLockError::WouldBlock) => return true,
            };
            let touched = slot.last_access_ms.load(Ordering::Relaxed);
            let idle = now_ms.saturating_sub(touched);
            if idle > ttl_ms {
                evicted.push(id);
                false
            } else {
                true
            }
        });
        evicted.sort_unstable();
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use subdex_core::{EngineConfig, ExplorationMode};
    use subdex_store::{
        Cell, EntityTableBuilder, RatingTableBuilder, Schema, SelectionQuery, SubjectiveDb,
    };

    fn tiny_db() -> Arc<SubjectiveDb> {
        let mut us = Schema::new();
        us.add("g", false);
        let mut ub = EntityTableBuilder::new(us);
        for i in 0..4 {
            ub.push_row(vec![Cell::from(if i % 2 == 0 { "a" } else { "b" })]);
        }
        let mut is = Schema::new();
        is.add("c", false);
        let mut ib = EntityTableBuilder::new(is);
        for i in 0..2 {
            ib.push_row(vec![Cell::from(if i == 0 { "x" } else { "y" })]);
        }
        let mut rb = RatingTableBuilder::new(vec!["overall".into()], 5);
        for r in 0..4u32 {
            for i in 0..2u32 {
                rb.push(r, i, &[1 + ((r + i) % 5) as u8]);
            }
        }
        Arc::new(SubjectiveDb::new(ub.build(), ib.build(), rb.build(4, 2)))
    }

    fn session() -> ExplorationSession {
        let cfg = EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        };
        ExplorationSession::new(tiny_db(), cfg, ExplorationMode::UserDriven)
    }

    #[test]
    fn insert_lookup_remove() {
        let reg = SessionRegistry::new();
        assert!(reg.is_empty());
        let id = reg.insert(session());
        assert!(reg.contains(id));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.ids(), vec![id]);

        let steps = reg.with_session(id, |s| {
            s.apply_operation(&SelectionQuery::all());
            s.path().len()
        });
        assert_eq!(steps, Some(1));

        assert!(reg.remove(id));
        assert!(!reg.remove(id), "second removal is a no-op");
        assert_eq!(reg.with_session(id, |_| ()), None);
    }

    #[test]
    fn ids_are_unique_and_ordered() {
        let reg = SessionRegistry::new();
        let a = reg.insert(session());
        let b = reg.insert(session());
        let c = reg.insert(session());
        assert_eq!(reg.ids(), vec![a, b, c]);
        assert!(a < b && b < c);
    }

    #[test]
    fn ttl_eviction_spares_recent_sessions() {
        let reg = SessionRegistry::new();
        let old = reg.insert(session());
        std::thread::sleep(Duration::from_millis(30));
        let fresh = reg.insert(session());
        let evicted = reg.evict_idle(Duration::from_millis(15));
        assert_eq!(evicted, vec![old]);
        assert!(!reg.contains(old));
        assert!(reg.contains(fresh));
    }

    #[test]
    fn touching_a_session_resets_its_idle_clock() {
        let reg = SessionRegistry::new();
        let id = reg.insert(session());
        std::thread::sleep(Duration::from_millis(30));
        reg.with_session(id, |_| ());
        assert!(reg.evict_idle(Duration::from_millis(15)).is_empty());
        assert!(reg.contains(id));
    }

    #[test]
    fn eviction_skips_sessions_mid_step() {
        let reg = Arc::new(SessionRegistry::new());
        let id = reg.insert(session());
        std::thread::sleep(Duration::from_millis(20));

        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let reg2 = Arc::clone(&reg);
        let worker = std::thread::spawn(move || {
            reg2.with_session(id, |_| {
                started_tx.send(()).unwrap();
                release_rx.recv().unwrap(); // hold the slot lock
            });
        });

        started_rx.recv().unwrap();
        // The session is far past the TTL but busy: must survive.
        assert!(reg.evict_idle(Duration::from_millis(1)).is_empty());
        assert!(reg.contains(id));

        release_tx.send(()).unwrap();
        worker.join().unwrap();
        // Done stepping (and freshly touched): still resident.
        assert!(reg.contains(id));
    }
}
