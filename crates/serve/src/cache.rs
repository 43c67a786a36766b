//! Content-addressed result cache for characterization responses.
//!
//! Keys are 128-bit [`sweep::fingerprint128`] digests of a request's
//! canonical bytes (see [`crate::api`]); values are the fully-rendered
//! response JSON, shared as `Arc<String>` so a hit costs one clone of a
//! pointer. Two layers:
//!
//! - **memory** — [`SHARDS`] independently-locked shards selected by
//!   the key's low bits, each an LRU-evicting map. Sharding keeps a
//!   cache probe from serializing the whole request path behind one
//!   mutex.
//! - **disk** (optional) — when constructed with a directory (the
//!   server wires `NVFF_CACHE_DIR`), every insert also lands as
//!   `<dir>/<32-hex-key>.json` via the same tmp-file + atomic-rename
//!   discipline as `telemetry::RunReport::write`, and a memory miss
//!   probes the directory before declaring a miss. Restarting the
//!   server keeps its warm set; concurrent servers may share one
//!   directory because renames are atomic and content-addressed files
//!   never conflict on content. Each file opens with a one-line header,
//!   `nvff-cache/1 <32-hex-key> <body bytes>`, and a read serves the
//!   body only if the header names the probed key and the body has
//!   exactly the recorded length. A truncated, foreign or headerless
//!   file is a miss, never a hit; the next insert of that key
//!   overwrites it.
//!
//! Telemetry: `serve.cache.hits` (either layer), `serve.cache.disk_hits`
//! (subset: memory miss rescued by disk), `serve.cache.disk_rejects`
//! (disk files that failed verification), `serve.cache.evictions`.
//! Misses are *not* counted here — the queue counts `serve.cache.misses`
//! when it actually schedules a computation, so hits + misses adds up
//! to completed requests rather than to internal probe counts.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Number of independently-locked shards (a power of two).
pub const SHARDS: usize = 16;

/// Magic opening a disk entry's header line (bumped if the layout
/// changes, so older files read as misses).
const DISK_MAGIC: &str = "nvff-cache/1";

/// Default total capacity (entries across all shards). A rendered
/// response is ~1 KiB, so the default costs a few MiB at worst.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One shard: a keyed map with a logical clock for LRU eviction.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<u128, (Arc<String>, u64)>,
    clock: u64,
}

impl Shard {
    fn touch(&mut self, key: u128) -> Option<Arc<String>> {
        self.clock += 1;
        let clock = self.clock;
        self.entries.get_mut(&key).map(|(value, last_used)| {
            *last_used = clock;
            Arc::clone(value)
        })
    }

    fn insert(&mut self, key: u128, value: Arc<String>, capacity: usize) -> usize {
        self.clock += 1;
        let clock = self.clock;
        let mut evicted = 0;
        if !self.entries.contains_key(&key) {
            // Scan-min LRU: capacities are small enough (hundreds per
            // shard) that a linked list would be bookkeeping for its
            // own sake.
            while self.entries.len() >= capacity.max(1) {
                if let Some(&oldest) = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, last_used))| *last_used)
                    .map(|(k, _)| k)
                {
                    self.entries.remove(&oldest);
                    evicted += 1;
                } else {
                    break;
                }
            }
        }
        self.entries.insert(key, (value, clock));
        evicted
    }
}

/// A sharded LRU of rendered responses, optionally backed by a
/// content-addressed directory.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    disk_dir: Option<PathBuf>,
}

impl ResultCache {
    /// A memory-only cache holding at most `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_disk(capacity, None)
    }

    /// A cache additionally persisting every entry under `disk_dir`
    /// (created on first insert if missing).
    #[must_use]
    pub fn with_disk(capacity: usize, disk_dir: Option<PathBuf>) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(SHARDS).max(1),
            disk_dir,
        }
    }

    fn shard(&self, key: u128) -> &Mutex<Shard> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    fn lock(shard: &Mutex<Shard>) -> std::sync::MutexGuard<'_, Shard> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Path of `key`'s disk entry under `dir`.
    fn disk_path(dir: &Path, key: u128) -> PathBuf {
        dir.join(format!("{key:032x}.json"))
    }

    /// Looks `key` up, trying memory then disk. Counts
    /// `serve.cache.hits` on success; never counts misses (see module
    /// docs).
    #[must_use]
    pub fn get(&self, key: u128) -> Option<Arc<String>> {
        if let Some(value) = Self::lock(self.shard(key)).touch(key) {
            telemetry::counter("serve.cache.hits", 1);
            return Some(value);
        }
        let dir = self.disk_dir.as_deref()?;
        let bytes = std::fs::read(Self::disk_path(dir, key)).ok()?;
        let Some(body) = Self::verified_body(&bytes, key) else {
            telemetry::counter("serve.cache.disk_rejects", 1);
            return None;
        };
        let value = Arc::new(body.to_owned());
        // Promote to memory so the next probe skips the filesystem.
        let evicted =
            Self::lock(self.shard(key)).insert(key, Arc::clone(&value), self.per_shard_capacity);
        if evicted > 0 {
            telemetry::counter("serve.cache.evictions", evicted as u64);
        }
        telemetry::counter("serve.cache.hits", 1);
        telemetry::counter("serve.cache.disk_hits", 1);
        Some(value)
    }

    /// Inserts a rendered response under `key`, evicting LRU entries
    /// past capacity and (if configured) persisting to disk with a
    /// tmp-file + atomic-rename write.
    pub fn insert(&self, key: u128, value: Arc<String>) {
        let evicted =
            Self::lock(self.shard(key)).insert(key, Arc::clone(&value), self.per_shard_capacity);
        if evicted > 0 {
            telemetry::counter("serve.cache.evictions", evicted as u64);
        }
        if let Some(dir) = self.disk_dir.as_deref() {
            // Disk failures degrade persistence, never correctness: the
            // response is already in memory and already being returned.
            let _ = Self::persist(dir, key, &value);
        }
    }

    fn persist(dir: &Path, key: u128, value: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = Self::disk_path(dir, key);
        // Process-unique tmp name: two servers sharing the directory
        // must not clobber each other's half-written files.
        let tmp = dir.join(format!(".tmp-{}-{key:032x}", std::process::id()));
        let entry = format!("{DISK_MAGIC} {key:032x} {}\n{value}", value.len());
        std::fs::write(&tmp, entry)?;
        std::fs::rename(&tmp, path)
    }

    /// The body of a disk entry, if its header names `key` and records
    /// the body's exact length.
    fn verified_body(bytes: &[u8], key: u128) -> Option<&str> {
        let text = std::str::from_utf8(bytes).ok()?;
        let (header, body) = text.split_once('\n')?;
        let mut fields = header.split(' ');
        let ok = fields.next() == Some(DISK_MAGIC)
            && fields.next().and_then(|k| u128::from_str_radix(k, 16).ok()) == Some(key)
            && fields.next().and_then(|n| n.parse::<usize>().ok()) == Some(body.len())
            && fields.next().is_none();
        ok.then_some(body)
    }

    /// Number of entries currently resident in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| Self::lock(s).entries.len())
            .sum()
    }

    /// Whether the in-memory layer is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_round_trips() {
        let cache = ResultCache::new(64);
        assert!(cache.get(7).is_none());
        cache.insert(7, Arc::new("body".into()));
        assert_eq!(cache.get(7).as_deref().map(String::as_str), Some("body"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_within_a_shard() {
        // Capacity 16 → one entry per shard. Keys differing only above
        // the shard bits collide onto shard 0 and fight for its slot.
        let cache = ResultCache::new(SHARDS);
        let key = |i: u128| i << 8; // low nibble 0 → all shard 0
        cache.insert(key(1), Arc::new("one".into()));
        cache.insert(key(2), Arc::new("two".into()));
        assert!(cache.get(key(1)).is_none(), "evicted by key(2)");
        assert!(cache.get(key(2)).is_some());
    }

    #[test]
    fn recently_touched_entries_survive_eviction_pressure() {
        // Two entries per shard.
        let cache = ResultCache::new(2 * SHARDS);
        let key = |i: u128| i << 8;
        cache.insert(key(1), Arc::new("one".into()));
        cache.insert(key(2), Arc::new("two".into()));
        let _ = cache.get(key(1)); // refresh 1 → 2 is now LRU
        cache.insert(key(3), Arc::new("three".into()));
        assert!(cache.get(key(1)).is_some(), "refreshed entry survives");
        assert!(cache.get(key(2)).is_none(), "stale entry evicted");
        assert!(cache.get(key(3)).is_some());
    }

    #[test]
    fn disk_layer_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!(
            "nvff-serve-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = ResultCache::with_disk(64, Some(dir.clone()));
            cache.insert(0xabc, Arc::new("persisted".into()));
        }
        // A fresh instance (fresh memory) must find it on disk.
        let cache = ResultCache::with_disk(64, Some(dir.clone()));
        assert_eq!(
            cache.get(0xabc).as_deref().map(String::as_str),
            Some("persisted")
        );
        // And the promotion lands it in memory.
        assert_eq!(cache.len(), 1);
        // No stray tmp files.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unverified_disk_files_are_misses_until_overwritten() {
        let dir = std::env::temp_dir().join(format!(
            "nvff-serve-cache-reject-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (truncated, foreign) = (0x7001_u128, 0x7002_u128);
        {
            let cache = ResultCache::with_disk(64, Some(dir.clone()));
            cache.insert(truncated, Arc::new("{\"body\":1}".into()));
            cache.insert(0x7003, Arc::new("{\"other\":2}".into()));
        }
        // Truncate one entry mid-body, and copy another key's (valid)
        // entry under a third key's name.
        let path = |key| ResultCache::disk_path(&dir, key);
        let full = std::fs::read(path(truncated)).expect("entry");
        std::fs::write(path(truncated), &full[..full.len() - 3]).expect("truncate");
        std::fs::copy(path(0x7003), path(foreign)).expect("copy");

        let cache = ResultCache::with_disk(64, Some(dir.clone()));
        assert!(cache.get(truncated).is_none(), "truncated file served");
        assert!(cache.get(foreign).is_none(), "foreign file served");
        assert!(cache.is_empty(), "a rejected file must not reach memory");
        // A headerless body (or any other bytes) is rejected the same way.
        assert_eq!(ResultCache::verified_body(b"{}", 1), None);
        // The next insert overwrites the bad file with a verified entry.
        cache.insert(foreign, Arc::new("{\"fresh\":3}".into()));
        let fresh = ResultCache::with_disk(64, Some(dir.clone()));
        assert_eq!(
            fresh.get(foreign).as_deref().map(String::as_str),
            Some("{\"fresh\":3}")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_only_cache_misses_cleanly() {
        let cache = ResultCache::new(8);
        assert!(cache.get(123).is_none());
        assert!(cache.is_empty());
    }
}
