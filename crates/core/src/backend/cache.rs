//! The sharded concurrent design cache shared between evaluators.

use super::EvalMetrics;
use crate::config::AxConfig;
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

/// Interned identifier of one `(benchmark, input_seed)` cache scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheScope(u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ScopedConfig {
    scope: CacheScope,
    config: AxConfig,
}

/// One lock-guarded slice of the table: the memo map plus a FIFO ring of
/// insertion order, consulted only when the shard carries a capacity bound.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<ScopedConfig, EvalMetrics>,
    order: VecDeque<ScopedConfig>,
}

/// A sharded concurrent design cache shared between evaluators.
///
/// Entries are keyed by `(benchmark, input_seed)` scope plus configuration,
/// so explorations of different benchmarks (or different input seeds of the
/// same benchmark) never collide while concurrent runs of the *same*
/// benchmark share memoised designs. Shards bound lock contention: a lookup
/// takes one `RwLock` read on 1/Nth of the table.
///
/// [`SharedCache::with_capacity`] additionally bounds memory: each shard
/// holds at most `max_entries_per_shard` designs and evicts its oldest
/// entry (FIFO) when full. Eviction costs recomputation only, never
/// correctness — evaluation is deterministic.
///
/// On the exact backend's single-design path a miss is single-flight:
/// while one evaluator computes a design, others asking for it wait for
/// its result instead of computing it again, so misses count distinct
/// designs whatever the thread interleaving.
#[derive(Debug)]
pub struct SharedCache {
    shards: Vec<RwLock<Shard>>,
    /// Per shard: the designs some [`Claim`] holder is computing, and the
    /// condition variable evaluators waiting for one of them sleep on.
    in_flight: Vec<(Mutex<HashSet<ScopedConfig>>, Condvar)>,
    /// Per-shard entry bound; `None` = unbounded.
    shard_capacity: Option<usize>,
    scopes: RwLock<HashMap<(String, u64), CacheScope>>,
    /// Monotonic scope-id source — never reused, so a scope re-interned
    /// after [`SharedCache::prune_oldest`] cannot collide with a survivor.
    next_scope: AtomicU64,
    /// Logical last-use stamp per scope id (intern or insert), driving
    /// oldest-first scope pruning. Purely relative — no wall clock. Slots
    /// are atomics so a stamp costs a read lock, not a write lock; only
    /// interning a brand-new scope grows the table.
    touches: RwLock<Vec<AtomicU64>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SharedCache {
    /// Default shard count: enough to keep a machine's worth of worker
    /// threads from serialising on one lock.
    const DEFAULT_SHARDS: usize = 16;

    /// A cache with the default shard count, ready to share via `Arc`.
    pub fn new() -> Arc<Self> {
        Self::with_shards(Self::DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (power of two recommended).
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Arc<Self> {
        Self::build(shards, None)
    }

    /// A size-bounded cache: `shards` shards of at most
    /// `max_entries_per_shard` designs each, oldest-first (FIFO) eviction.
    ///
    /// The total bound is `shards × max_entries_per_shard`; the cache never
    /// holds more entries than that ([`SharedCache::capacity`]).
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `max_entries_per_shard` is zero.
    pub fn with_capacity(shards: usize, max_entries_per_shard: usize) -> Arc<Self> {
        assert!(
            max_entries_per_shard > 0,
            "shard capacity must be at least one entry"
        );
        Self::build(shards, Some(max_entries_per_shard))
    }

    fn build(shards: usize, shard_capacity: Option<usize>) -> Arc<Self> {
        assert!(shards > 0, "cache needs at least one shard");
        Arc::new(Self {
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            in_flight: (0..shards).map(|_| Default::default()).collect(),
            shard_capacity,
            scopes: RwLock::new(HashMap::new()),
            next_scope: AtomicU64::new(0),
            touches: RwLock::new(Vec::new()),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        })
    }

    /// The maximum number of entries this cache will hold, if bounded.
    pub fn capacity(&self) -> Option<usize> {
        self.shard_capacity.map(|c| c * self.shards.len())
    }

    /// Interns a `(benchmark, input_seed)` pair, returning its scope id.
    /// The same pair always maps to the same scope until the scope is
    /// dropped by [`SharedCache::prune_oldest`] (re-interning after a
    /// prune yields a fresh, never-reused id). Interning counts as a use
    /// for pruning recency.
    pub fn scope(&self, benchmark: &str, input_seed: u64) -> CacheScope {
        let key = (benchmark.to_owned(), input_seed);
        if let Some(&s) = self.scopes.read().expect("scope table poisoned").get(&key) {
            self.touch(s);
            return s;
        }
        let mut scopes = self.scopes.write().expect("scope table poisoned");
        let scope = *scopes
            .entry(key)
            .or_insert_with(|| CacheScope(self.next_scope.fetch_add(1, Ordering::Relaxed) as u32));
        drop(scopes);
        {
            let mut touches = self.touches.write().expect("touch table poisoned");
            while touches.len() <= scope.0 as usize {
                touches.push(AtomicU64::new(0));
            }
        }
        self.touch(scope);
        scope
    }

    /// Stamps `scope` as just-used for [`SharedCache::prune_oldest`]'s
    /// oldest-first ordering.
    fn touch(&self, scope: CacheScope) {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let touches = self.touches.read().expect("touch table poisoned");
        if let Some(slot) = touches.get(scope.0 as usize) {
            slot.store(stamp, Ordering::Relaxed);
        }
    }

    fn shard_index(&self, key: &ScopedConfig) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn shard(&self, key: &ScopedConfig) -> &RwLock<Shard> {
        &self.shards[self.shard_index(key)]
    }

    /// Looks up a configuration in a scope; on a miss, claims it.
    ///
    /// A hit returns the metrics. A miss returns a [`Claim`]: the caller
    /// computes the design and hands the result to [`Claim::fill`]. While
    /// the claim is out, other callers asking for the same design wait for
    /// it and then count a hit, so concurrent evaluators never compute one
    /// design twice and the hit and miss counts are those of a sequential
    /// run. Dropping a claim unfilled (the computation failed) wakes the
    /// waiters, and the next one claims the design itself.
    ///
    /// Hold at most one claim at a time: a holder that waits for another
    /// design can deadlock against a holder waiting for its own.
    pub(crate) fn get_or_claim(self: &Arc<Self>, scope: CacheScope, config: &AxConfig) -> Lookup {
        let key = ScopedConfig {
            scope,
            config: *config,
        };
        let i = self.shard_index(&key);
        let cached = || {
            self.shards[i]
                .read()
                .expect("cache shard poisoned")
                .map
                .get(&key)
                .copied()
        };
        let hit = |m| {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Lookup::Hit(m)
        };
        if let Some(m) = cached() {
            return hit(m);
        }
        let (lock, ready) = &self.in_flight[i];
        let mut pending = lock.lock().expect("in-flight table poisoned");
        loop {
            // Checked under the in-flight lock: a claim is filled before it
            // is withdrawn, so a waiter woken by the withdrawal finds the
            // entry here.
            if let Some(m) = cached() {
                return hit(m);
            }
            if pending.insert(key) {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Claim(Claim {
                    cache: Arc::clone(self),
                    key,
                });
            }
            pending = ready.wait(pending).expect("in-flight table poisoned");
        }
    }

    /// Looks up a configuration in a scope.
    pub fn get(&self, scope: CacheScope, config: &AxConfig) -> Option<EvalMetrics> {
        let key = ScopedConfig {
            scope,
            config: *config,
        };
        let found = self
            .shard(&key)
            .read()
            .expect("cache shard poisoned")
            .map
            .get(&key)
            .copied();
        match found {
            Some(m) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(m)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a configuration's metrics into a scope, evicting the shard's
    /// oldest entry first if the cache is bounded and the shard is full.
    /// Racing inserts of the same key are benign: evaluation is
    /// deterministic, so both writers carry identical metrics.
    pub fn insert(&self, scope: CacheScope, config: AxConfig, metrics: EvalMetrics) {
        self.touch(scope);
        let key = ScopedConfig { scope, config };
        let mut shard = self.shard(&key).write().expect("cache shard poisoned");
        if let Some(slot) = shard.map.get_mut(&key) {
            *slot = metrics;
            return;
        }
        if let Some(cap) = self.shard_capacity {
            while shard.map.len() >= cap {
                let oldest = shard
                    .order
                    .pop_front()
                    .expect("bounded shard must track insertion order");
                shard.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(key, metrics);
        if self.shard_capacity.is_some() {
            shard.order.push_back(key);
        }
    }

    /// All cached designs of one `(benchmark, input_seed)` scope — the
    /// training-harvest entry point for surrogate models. Returns an empty
    /// vector for unknown scopes; the iteration order is unspecified
    /// (callers needing determinism sort by configuration).
    pub fn snapshot(&self, benchmark: &str, input_seed: u64) -> Vec<(AxConfig, EvalMetrics)> {
        let key = (benchmark.to_owned(), input_seed);
        let Some(&scope) = self.scopes.read().expect("scope table poisoned").get(&key) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = shard.read().expect("cache shard poisoned");
            out.extend(
                shard
                    .map
                    .iter()
                    .filter(|(k, _)| k.scope == scope)
                    .map(|(k, m)| (k.config, *m)),
            );
        }
        out
    }

    /// Entries of one `(benchmark, input_seed)` scope — the per-benchmark
    /// counterpart of [`SharedCache::len`]. Returns 0 for unknown scopes.
    pub fn scope_len(&self, benchmark: &str, input_seed: u64) -> usize {
        let key = (benchmark.to_owned(), input_seed);
        let Some(&scope) = self.scopes.read().expect("scope table poisoned").get(&key) else {
            return 0;
        };
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("cache shard poisoned")
                    .map
                    .keys()
                    .filter(|k| k.scope == scope)
                    .count()
            })
            .sum()
    }

    /// Total entries across all shards and scopes.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// `true` if no design has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to respect the capacity bound (or dropped by
    /// [`SharedCache::prune_oldest`]) since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of interned `(benchmark, input_seed)` scopes.
    pub fn scope_count(&self) -> usize {
        self.scopes.read().expect("scope table poisoned").len()
    }

    /// Age/size-based scope pruning for long-lived caches (the `ax-serve`
    /// daemon's periodic housekeeping): drops whole least-recently-used
    /// scopes — recency being the last intern or insert, a logical clock,
    /// never wall time — until at most `max_scopes` scopes remain **and**
    /// the total entry count is within `max_entries` (when given).
    /// Returns the number of entries dropped; dropped entries count as
    /// [`SharedCache::evictions`]. Pruning costs recomputation only,
    /// never correctness.
    ///
    /// A pruned scope's id is retired, not recycled: re-interning the same
    /// `(benchmark, input_seed)` later yields a fresh empty scope.
    pub fn prune_oldest(&self, max_scopes: usize, max_entries: Option<usize>) -> usize {
        // Lock order everywhere: scopes before touches before shards.
        let mut scopes = self.scopes.write().expect("scope table poisoned");
        let mut ranked: Vec<((String, u64), CacheScope, u64)> = {
            let touches = self.touches.read().expect("touch table poisoned");
            scopes
                .iter()
                .map(|(k, &s)| {
                    let stamp = touches
                        .get(s.0 as usize)
                        .map_or(0, |t| t.load(Ordering::Relaxed));
                    (k.clone(), s, stamp)
                })
                .collect()
        };
        // Oldest stamp first; ties resolve to the lower (earlier) scope id.
        ranked.sort_by_key(|&(_, s, stamp)| (stamp, s.0));
        let mut sizes: Vec<usize> = Vec::with_capacity(ranked.len());
        for (_, scope, _) in &ranked {
            let count: usize = self
                .shards
                .iter()
                .map(|sh| {
                    sh.read()
                        .expect("cache shard poisoned")
                        .map
                        .keys()
                        .filter(|k| k.scope == *scope)
                        .count()
                })
                .sum();
            sizes.push(count);
        }
        let mut remaining_scopes = ranked.len();
        let mut remaining_entries: usize = sizes.iter().sum();
        let mut removed = 0usize;
        for ((key, scope, _), size) in ranked.into_iter().zip(sizes) {
            let over_scopes = remaining_scopes > max_scopes;
            let over_entries = max_entries.is_some_and(|m| remaining_entries > m);
            if !(over_scopes || over_entries) {
                break;
            }
            scopes.remove(&key);
            for sh in &self.shards {
                let mut sh = sh.write().expect("cache shard poisoned");
                sh.map.retain(|k, _| k.scope != scope);
                sh.order.retain(|k| k.scope != scope);
            }
            remaining_scopes -= 1;
            remaining_entries -= size;
            removed += size;
        }
        self.evictions.fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Serialises the whole memo table (every scope, every design) as JSON
    /// to `path`, so a later process can [`SharedCache::load`] it and skip
    /// re-evaluating designs this one already paid for. Output is
    /// deterministic: scopes sort by `(benchmark, input_seed)`, entries by
    /// configuration.
    ///
    /// Safe against simultaneous writers: the write goes to a temp file in
    /// the same directory, followed by an atomic rename, with a `.lock`
    /// sibling file serialising writers across processes — a reader or a
    /// concurrent saver never observes a half-written file. A lock left
    /// behind by a crashed process is stolen after
    /// [`SharedCache::LOCK_STALE_SECS`].
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; waiting longer than ~30s for the lock
    /// fails with [`std::io::ErrorKind::TimedOut`].
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let _lock = SaveLock::acquire(path)?;
        self.save_locked(path)
    }

    /// [`SharedCache::merge_from`] + [`SharedCache::save`] under **one**
    /// file lock: merges whatever is on disk into this cache, then writes
    /// the union back atomically. This closes the merge-then-save race two
    /// plain `save` callers still have (each save is atomic, but a write
    /// landing between another writer's merge and save would be lost) —
    /// the daemon's persistence path.
    ///
    /// Returns the number of entries merged in from disk (0 when the file
    /// did not exist yet).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors, including malformed on-disk caches
    /// ([`std::io::ErrorKind::InvalidData`]).
    pub fn save_merged(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        let path = path.as_ref();
        let _lock = SaveLock::acquire(path)?;
        let merged = if path.exists() {
            self.merge_from(path)?
        } else {
            0
        };
        self.save_locked(path)?;
        Ok(merged)
    }

    /// The body of [`SharedCache::save`], called with the lock held: build
    /// the deterministic document, write it next to `path`, rename over.
    fn save_locked(&self, path: &std::path::Path) -> std::io::Result<()> {
        use crate::json::Json;
        let mut scopes: Vec<((String, u64), CacheScope)> = self
            .scopes
            .read()
            .expect("scope table poisoned")
            .iter()
            .map(|(k, &s)| (k.clone(), s))
            .collect();
        scopes.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut scope_nodes = Vec::with_capacity(scopes.len());
        for ((benchmark, input_seed), _) in scopes {
            let mut entries = self.snapshot(&benchmark, input_seed);
            entries.sort_by_key(|(c, _)| (c.adder.0, c.mul.0, c.vars));
            let entry_nodes = entries
                .into_iter()
                .map(|(c, m)| {
                    Json::obj(vec![
                        ("adder", Json::u64(c.adder.0 as u64)),
                        ("mul", Json::u64(c.mul.0 as u64)),
                        ("vars", Json::u64(c.vars)),
                        ("delta_acc", Json::f64(m.delta_acc)),
                        ("delta_power", Json::f64(m.delta_power)),
                        ("delta_time", Json::f64(m.delta_time)),
                        ("signed_error", Json::f64(m.signed_error)),
                        ("power", Json::f64(m.power)),
                        ("time_ns", Json::f64(m.time_ns)),
                    ])
                })
                .collect();
            scope_nodes.push(Json::obj(vec![
                ("benchmark", Json::str(benchmark)),
                ("input_seed", Json::u64(input_seed)),
                ("entries", Json::Arr(entry_nodes)),
            ]));
        }
        let doc = Json::obj(vec![("scopes", Json::Arr(scope_nodes))]);
        let tmp = path.with_file_name(format!(
            "{}.tmp.{}",
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "cache".into()),
            std::process::id()
        ));
        if let Err(e) =
            std::fs::write(&tmp, doc.pretty()).and_then(|()| std::fs::rename(&tmp, path))
        {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        Ok(())
    }

    /// Loads a cache previously written by [`SharedCache::save`] into a
    /// fresh unbounded cache.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed files surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Arc<Self>> {
        let cache = Self::new();
        cache.merge_from(path)?;
        Ok(cache)
    }

    /// Loads a cache file into a fresh **bounded** cache
    /// ([`SharedCache::with_capacity`]), so oversized files shrink to the
    /// bound on load and stay bounded when saved again.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed files surface as
    /// [`std::io::ErrorKind::InvalidData`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `max_entries_per_shard` is zero.
    pub fn load_bounded(
        path: impl AsRef<std::path::Path>,
        shards: usize,
        max_entries_per_shard: usize,
    ) -> std::io::Result<Arc<Self>> {
        let cache = Self::with_capacity(shards, max_entries_per_shard);
        cache.merge_from(path)?;
        Ok(cache)
    }

    /// Merges a cache file written by [`SharedCache::save`] into this
    /// cache and returns the number of entries read.
    ///
    /// The merge is a union keyed by `(benchmark, input_seed)` scope and
    /// configuration, file entries winning conflicts (last-writer-wins per
    /// design — harmless, because evaluation is deterministic and any two
    /// writers carry identical metrics for the same key). This is what
    /// keeps concurrent `repro run --cache` writers from silently dropping
    /// each other's work: merge the file again right before saving and the
    /// written union contains both processes' designs, whichever saved
    /// first. On a bounded cache ([`SharedCache::with_capacity`]) merged
    /// entries respect the capacity via the normal FIFO eviction, so the
    /// re-saved file stays bounded by `shard_capacity` too.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; malformed files surface as
    /// [`std::io::ErrorKind::InvalidData`].
    pub fn merge_from(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
        use crate::json::Json;
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
        let text = std::fs::read_to_string(path)?;
        let doc = Json::parse(&text).map_err(|e| invalid(e.to_string()))?;
        let cache = self;
        let mut merged = 0usize;
        let scopes = doc
            .get("scopes")
            .ok_or_else(|| invalid("cache file needs a `scopes` array".into()))?
            .as_arr()
            .map_err(|e| invalid(e.to_string()))?;
        for scope_node in scopes {
            let field = |key: &str| {
                scope_node
                    .get(key)
                    .ok_or_else(|| invalid(format!("cache scope needs `{key}`")))
            };
            let benchmark = field("benchmark")?
                .as_str()
                .map_err(|e| invalid(e.to_string()))?;
            let input_seed = field("input_seed")?
                .as_u64()
                .map_err(|e| invalid(e.to_string()))?;
            let scope = cache.scope(benchmark, input_seed);
            for entry in field("entries")?
                .as_arr()
                .map_err(|e| invalid(e.to_string()))?
            {
                let num = |key: &str| {
                    entry
                        .get(key)
                        .ok_or_else(|| invalid(format!("cache entry needs `{key}`")))
                };
                let config = AxConfig {
                    adder: ax_operators::AdderId(
                        num("adder")?
                            .as_usize()
                            .map_err(|e| invalid(e.to_string()))?,
                    ),
                    mul: ax_operators::MulId(
                        num("mul")?.as_usize().map_err(|e| invalid(e.to_string()))?,
                    ),
                    vars: num("vars")?.as_u64().map_err(|e| invalid(e.to_string()))?,
                };
                let f = |key: &str| -> std::io::Result<f64> {
                    num(key)?.as_f64().map_err(|e| invalid(e.to_string()))
                };
                let metrics = EvalMetrics {
                    delta_acc: f("delta_acc")?,
                    delta_power: f("delta_power")?,
                    delta_time: f("delta_time")?,
                    signed_error: f("signed_error")?,
                    power: f("power")?,
                    time_ns: f("time_ns")?,
                };
                cache.insert(scope, config, metrics);
                merged += 1;
            }
        }
        Ok(merged)
    }
}

/// What [`SharedCache::get_or_claim`] found.
#[derive(Debug)]
pub(crate) enum Lookup {
    /// The design's metrics: cached, or computed meanwhile by the
    /// evaluator that held its claim.
    Hit(EvalMetrics),
    /// No evaluator has the design: the caller now holds its claim.
    Claim(Claim),
}

/// The exclusive right to compute one design missing from a
/// [`SharedCache`], taken by [`SharedCache::get_or_claim`].
///
/// [`Claim::fill`] caches the result; dropping the claim unfilled withdraws
/// it. Either way, evaluators waiting for the design wake up.
#[derive(Debug)]
#[must_use = "a claim must be filled with the design's metrics"]
pub(crate) struct Claim {
    cache: Arc<SharedCache>,
    key: ScopedConfig,
}

impl Claim {
    /// Caches the claimed design's metrics and releases the claim.
    pub(crate) fn fill(self, metrics: EvalMetrics) {
        self.cache.insert(self.key.scope, self.key.config, metrics);
        // Dropping `self` withdraws the claim and wakes the waiters.
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        let (lock, ready) = &self.cache.in_flight[self.cache.shard_index(&self.key)];
        // Membership is all the set holds, so a lock poisoned by another
        // thread's panic is still safe to use; a drop must not panic.
        lock.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&self.key);
        ready.notify_all();
    }
}

impl SharedCache {
    /// Age after which a writer assumes a `.lock` file was left behind by
    /// a crashed process and steals it.
    pub const LOCK_STALE_SECS: u64 = 10;
}

/// An exclusive advisory lock on a cache file, held for the duration of a
/// save: a `<file>.lock` sibling created with `create_new` (atomic on
/// every platform), removed on drop. Contending writers poll; stale locks
/// (older than [`SharedCache::LOCK_STALE_SECS`]) are stolen.
#[derive(Debug)]
struct SaveLock {
    path: std::path::PathBuf,
}

impl SaveLock {
    const POLL: std::time::Duration = std::time::Duration::from_millis(5);
    const TIMEOUT: std::time::Duration = std::time::Duration::from_secs(30);

    fn acquire(target: &std::path::Path) -> std::io::Result<Self> {
        use std::io::Write;
        let path = target.with_file_name(format!(
            "{}.lock",
            target
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "cache".into())
        ));
        let start = std::time::Instant::now();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    // Owner pid, for a human untangling a stuck daemon.
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = std::fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| m.elapsed().ok())
                        .is_some_and(|age| {
                            age > std::time::Duration::from_secs(SharedCache::LOCK_STALE_SECS)
                        });
                    if stale {
                        let _ = std::fs::remove_file(&path);
                        continue;
                    }
                    if start.elapsed() > Self::TIMEOUT {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            format!("timed out waiting for cache lock {}", path.display()),
                        ));
                    }
                    std::thread::sleep(Self::POLL);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for SaveLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ax_operators::{AdderId, MulId};

    fn metrics(tag: f64) -> EvalMetrics {
        EvalMetrics {
            delta_acc: tag,
            delta_power: tag,
            delta_time: tag,
            signed_error: tag,
            power: tag,
            time_ns: tag,
        }
    }

    fn config(i: u64) -> AxConfig {
        AxConfig {
            adder: AdderId((i % 7) as usize),
            mul: MulId((i % 5) as usize),
            vars: i,
        }
    }

    #[test]
    fn a_design_in_flight_is_waited_for_not_recomputed() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        let Lookup::Claim(claim) = cache.get_or_claim(scope, &config(3)) else {
            panic!("an empty cache must hand out the claim");
        };
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let found = match cache.get_or_claim(scope, &config(3)) {
                    Lookup::Hit(m) => Some(m),
                    Lookup::Claim(_) => None,
                };
                tx.send(found).expect("main thread listens");
            })
        };
        // The second caller blocks while the claim is out ...
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        // ... and reads the filled result as a hit.
        claim.fill(metrics(7.0));
        assert_eq!(rx.recv().expect("waiter answers"), Some(metrics(7.0)));
        waiter.join().expect("waiter thread");
        assert_eq!((cache.misses(), cache.hits()), (1, 1));
    }

    #[test]
    fn an_unfilled_claim_passes_to_the_next_caller() {
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        let first = cache.get_or_claim(scope, &config(1));
        assert!(matches!(first, Lookup::Claim(_)));
        drop(first);
        assert!(matches!(
            cache.get_or_claim(scope, &config(1)),
            Lookup::Claim(_)
        ));
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn bounded_cache_never_exceeds_capacity() {
        let cache = SharedCache::with_capacity(4, 8);
        let scope = cache.scope("bench", 0);
        assert_eq!(cache.capacity(), Some(32));
        for i in 0..10_000u64 {
            cache.insert(scope, config(i), metrics(i as f64));
            assert!(
                cache.len() <= 32,
                "cache grew to {} past its bound at insert {i}",
                cache.len()
            );
        }
        assert!(
            cache.evictions() > 0,
            "the bound must have forced evictions"
        );
        assert!(!cache.is_empty());
    }

    #[test]
    fn eviction_is_fifo_within_a_shard() {
        // One shard makes the global order the shard order: after
        // overfilling, the oldest inserts are gone and the newest remain.
        let cache = SharedCache::with_capacity(1, 4);
        let scope = cache.scope("bench", 0);
        for i in 0..6u64 {
            cache.insert(scope, config(i), metrics(i as f64));
        }
        assert_eq!(cache.len(), 4);
        assert!(cache.get(scope, &config(0)).is_none(), "oldest evicted");
        assert!(
            cache.get(scope, &config(1)).is_none(),
            "second-oldest evicted"
        );
        for i in 2..6u64 {
            assert!(cache.get(scope, &config(i)).is_some(), "entry {i} retained");
        }
    }

    #[test]
    fn reinsert_of_existing_key_does_not_evict() {
        let cache = SharedCache::with_capacity(1, 2);
        let scope = cache.scope("bench", 0);
        cache.insert(scope, config(0), metrics(0.0));
        cache.insert(scope, config(1), metrics(1.0));
        cache.insert(scope, config(0), metrics(0.0));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert!(cache.get(scope, &config(1)).is_some());
    }

    #[test]
    fn unbounded_cache_reports_no_capacity() {
        let cache = SharedCache::new();
        assert_eq!(cache.capacity(), None);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_shard_capacity_rejected() {
        let _ = SharedCache::with_capacity(4, 0);
    }

    #[test]
    fn scope_len_counts_per_benchmark() {
        let cache = SharedCache::new();
        let a = cache.scope("bench-a", 1);
        let b = cache.scope("bench-b", 1);
        cache.insert(a, config(1), metrics(1.0));
        cache.insert(a, config(2), metrics(2.0));
        cache.insert(b, config(3), metrics(3.0));
        assert_eq!(cache.scope_len("bench-a", 1), 2);
        assert_eq!(cache.scope_len("bench-b", 1), 1);
        assert_eq!(cache.scope_len("bench-a", 2), 0);
        assert_eq!(cache.scope_len("unknown", 1), 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn save_load_round_trips_every_scope() {
        let cache = SharedCache::new();
        let a = cache.scope("bench-a", 1);
        let b = cache.scope("bench-b", 7);
        for i in 0..20u64 {
            cache.insert(a, config(i), metrics(i as f64 * 0.25));
        }
        cache.insert(b, config(99), metrics(-3.5));
        let path = std::env::temp_dir().join("ax_dse_cache_roundtrip.json");
        cache.save(&path).unwrap();
        let loaded = SharedCache::load(&path).unwrap();
        assert_eq!(loaded.len(), cache.len());
        let scope = loaded.scope("bench-a", 1);
        for i in 0..20u64 {
            assert_eq!(
                loaded.get(scope, &config(i)),
                Some(metrics(i as f64 * 0.25)),
                "entry {i}"
            );
        }
        let scope_b = loaded.scope("bench-b", 7);
        assert_eq!(loaded.get(scope_b, &config(99)), Some(metrics(-3.5)));
        // Saving the loaded cache reproduces the identical file.
        let path2 = std::env::temp_dir().join("ax_dse_cache_roundtrip2.json");
        loaded.save(&path2).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            std::fs::read_to_string(&path2).unwrap()
        );
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(path2);
    }

    #[test]
    fn merge_from_unions_concurrent_writers() {
        // Two processes load the same (empty) state, cache disjoint work
        // and save to the same file; whoever merges before saving keeps
        // both sides' designs instead of silently dropping the other's.
        let path = std::env::temp_dir().join("ax_dse_cache_merge.json");
        let writer_a = SharedCache::new();
        let a_scope = writer_a.scope("bench-a", 1);
        for i in 0..10u64 {
            writer_a.insert(a_scope, config(i), metrics(i as f64));
        }
        writer_a.save(&path).unwrap();

        // Writer B worked concurrently on another benchmark plus one
        // overlapping design; it merges the file before saving.
        let writer_b = SharedCache::new();
        let b_scope = writer_b.scope("bench-b", 2);
        for i in 0..5u64 {
            writer_b.insert(b_scope, config(i), metrics(100.0 + i as f64));
        }
        let overlap = writer_b.scope("bench-a", 1);
        writer_b.insert(overlap, config(3), metrics(3.0));
        let merged = writer_b.merge_from(&path).unwrap();
        assert_eq!(merged, 10);
        writer_b.save(&path).unwrap();

        let union = SharedCache::load(&path).unwrap();
        assert_eq!(union.len(), 15, "10 from A + 5 from B, overlap deduped");
        let sa = union.scope("bench-a", 1);
        let sb = union.scope("bench-b", 2);
        assert_eq!(union.get(sa, &config(7)), Some(metrics(7.0)), "A's work");
        assert_eq!(union.get(sb, &config(4)), Some(metrics(104.0)), "B's work");
        assert_eq!(union.get(sa, &config(3)), Some(metrics(3.0)), "overlap");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn merge_from_is_last_writer_wins_per_design() {
        let path = std::env::temp_dir().join("ax_dse_cache_lww.json");
        let disk = SharedCache::new();
        let scope = disk.scope("bench", 0);
        disk.insert(scope, config(1), metrics(42.0));
        disk.save(&path).unwrap();
        let mem = SharedCache::new();
        let m_scope = mem.scope("bench", 0);
        mem.insert(m_scope, config(1), metrics(-1.0));
        mem.merge_from(&path).unwrap();
        // The file was written after this process loaded: its entry wins.
        assert_eq!(mem.get(m_scope, &config(1)), Some(metrics(42.0)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn bounded_load_and_save_keep_the_file_bounded() {
        // An unbounded writer produced an oversized file; loading it into
        // a bounded cache shrinks it to the capacity, and the re-saved
        // file respects the shard_capacity bound.
        let path = std::env::temp_dir().join("ax_dse_cache_bounded.json");
        let big = SharedCache::new();
        let scope = big.scope("bench", 0);
        for i in 0..100u64 {
            big.insert(scope, config(i), metrics(i as f64));
        }
        big.save(&path).unwrap();
        let bounded = SharedCache::load_bounded(&path, 4, 8).unwrap();
        assert!(bounded.len() <= 32, "load respects the bound");
        assert!(bounded.evictions() > 0);
        bounded.save(&path).unwrap();
        let reloaded = SharedCache::load(&path).unwrap();
        assert!(reloaded.len() <= 32, "the on-disk file is bounded too");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn load_rejects_malformed_files() {
        let path = std::env::temp_dir().join("ax_dse_cache_bad.json");
        std::fs::write(&path, "{\"scopes\": [{\"benchmark\": 3}]}").unwrap();
        let err = SharedCache::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn prune_oldest_drops_least_recently_used_scopes() {
        let cache = SharedCache::new();
        let a = cache.scope("bench-a", 0);
        let b = cache.scope("bench-b", 0);
        let c = cache.scope("bench-c", 0);
        for i in 0..4u64 {
            cache.insert(a, config(i), metrics(1.0));
        }
        for i in 0..3u64 {
            cache.insert(b, config(i), metrics(2.0));
        }
        for i in 0..2u64 {
            cache.insert(c, config(i), metrics(3.0));
        }
        // Touch the oldest-inserted scope again: recency, not creation
        // order, decides survival.
        let _ = cache.scope("bench-a", 0);
        let removed = cache.prune_oldest(2, None);
        assert_eq!(removed, 3, "bench-b (LRU) is dropped whole");
        assert_eq!(cache.scope_count(), 2);
        assert_eq!(cache.scope_len("bench-a", 0), 4);
        assert_eq!(cache.scope_len("bench-b", 0), 0);
        assert_eq!(cache.scope_len("bench-c", 0), 2);
        assert_eq!(cache.evictions(), 3, "prunes count as evictions");
        // A pruned scope re-interns as a fresh id with no entries, and
        // never collides with a survivor's id.
        let b2 = cache.scope("bench-b", 0);
        assert_ne!(b2, a);
        assert_ne!(b2, c);
        assert_ne!(b2, b);
        assert!(cache.get(b2, &config(0)).is_none());
    }

    #[test]
    fn prune_oldest_also_respects_an_entry_bound() {
        let cache = SharedCache::new();
        for s in 0..5u64 {
            let scope = cache.scope(&format!("bench-{s}"), 0);
            for i in 0..10u64 {
                cache.insert(scope, config(i), metrics(s as f64));
            }
        }
        assert_eq!(cache.len(), 50);
        // The scope bound alone is satisfied; the entry bound forces two
        // more oldest scopes out.
        let removed = cache.prune_oldest(5, Some(30));
        assert_eq!(removed, 20);
        assert_eq!(cache.len(), 30);
        assert_eq!(cache.scope_count(), 3);
        assert_eq!(cache.scope_len("bench-0", 0), 0, "oldest dropped first");
        assert_eq!(cache.scope_len("bench-4", 0), 10, "newest kept");
        // Already within bounds: a second prune is a no-op.
        assert_eq!(cache.prune_oldest(5, Some(30)), 0);
    }

    #[test]
    fn save_waits_for_a_held_lock() {
        let dir = std::env::temp_dir().join(format!("ax_dse_cache_lock_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let lock_path = dir.join("cache.json.lock");
        std::fs::write(&lock_path, "held").unwrap();
        let cache = SharedCache::new();
        let scope = cache.scope("bench", 0);
        cache.insert(scope, config(1), metrics(1.0));
        let saver = {
            let cache = Arc::clone(&cache);
            let path = path.clone();
            std::thread::spawn(move || cache.save(&path))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(!saver.is_finished(), "save must block on a fresh lock");
        std::fs::remove_file(&lock_path).unwrap();
        saver.join().unwrap().unwrap();
        assert_eq!(SharedCache::load(&path).unwrap().len(), 1);
        assert!(!lock_path.exists(), "the lock is released after saving");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_saves_never_corrupt_the_file() {
        let dir =
            std::env::temp_dir().join(format!("ax_dse_cache_concurrent_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        std::thread::scope(|s| {
            for w in 0..8u64 {
                let path = path.clone();
                s.spawn(move || {
                    let cache = SharedCache::new();
                    let scope = cache.scope(&format!("bench-{w}"), w);
                    for i in 0..20u64 {
                        cache.insert(scope, config(i), metrics(w as f64));
                    }
                    cache.save_merged(&path).unwrap();
                });
            }
        });
        // Every writer merged under the lock before saving, so the final
        // file holds the full union and parses cleanly.
        let merged = SharedCache::load(&path).unwrap();
        assert_eq!(merged.len(), 8 * 20);
        for w in 0..8u64 {
            assert_eq!(merged.scope_len(&format!("bench-{w}"), w), 20);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_merged_unions_with_the_on_disk_state() {
        let dir =
            std::env::temp_dir().join(format!("ax_dse_cache_save_merged_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        let first = SharedCache::new();
        let fs_scope = first.scope("bench-a", 0);
        first.insert(fs_scope, config(1), metrics(1.0));
        assert_eq!(first.save_merged(&path).unwrap(), 0, "no file to merge");
        let second = SharedCache::new();
        let sc = second.scope("bench-b", 0);
        second.insert(sc, config(2), metrics(2.0));
        assert_eq!(second.save_merged(&path).unwrap(), 1, "merged A's entry");
        let union = SharedCache::load(&path).unwrap();
        assert_eq!(union.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_returns_scope_entries_only() {
        let cache = SharedCache::new();
        let a = cache.scope("bench", 1);
        let b = cache.scope("bench", 2);
        cache.insert(a, config(1), metrics(1.0));
        cache.insert(a, config(2), metrics(2.0));
        cache.insert(b, config(3), metrics(3.0));
        let mut snap = cache.snapshot("bench", 1);
        snap.sort_by_key(|(c, _)| c.vars);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, config(1));
        assert_eq!(snap[1].0, config(2));
        assert!(cache.snapshot("bench", 9).is_empty());
        assert!(cache.snapshot("other", 1).is_empty());
    }
}
