//! Persistent content-addressed result cache.
//!
//! A sweep point is identified by a [`CacheKey`]: a 128-bit FNV-1a hash of
//! the *canonical JSON* encoding of everything that determines its result —
//! the full mix (application profiles, not just the name), the experiment
//! parameters, the scheduling configuration, the kind of run, and a
//! code-version salt ([`CODE_SALT`]) that is bumped whenever the simulator
//! or scheduler semantics change. Canonical JSON (declaration-ordered maps,
//! no whitespace, shortest-round-trip floats) makes the key stable across
//! processes and serde round-trips.
//!
//! Values are stored one file per key under the cache directory as
//! `<32-hex-digit-key>.json`. Writes go through a unique temp file and an
//! atomic rename so concurrent workers computing the same key can never
//! leave a torn entry; unreadable or corrupt entries are treated as misses
//! (and removed) rather than errors.

use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bump on any change to simulator/scheduler semantics that should
/// invalidate previously cached results.
pub const CODE_SALT: &str = "smt-adts-sweep-v1";

/// Version of the key material layout itself.
const KEY_SCHEMA: u32 = 1;

/// 128-bit content hash identifying one sweep point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey(pub u128);

impl CacheKey {
    /// Lower-case hex form used as the cache file stem.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

/// FNV-1a, 128-bit parameters.
fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Everything that determines a sweep point's result, normalized to
/// [`serde::Value`] so one struct covers every experiment kind.
#[derive(Clone, Debug, Serialize)]
pub struct KeyMaterial {
    pub schema: u32,
    pub salt: String,
    /// Run kind, e.g. `"fixed"`, `"adaptive"`, `"oracle"`.
    pub kind: String,
    /// The full mix: name, description and member application profiles.
    pub mix: serde::Value,
    /// The experiment parameters ([`crate::ExpParams`]).
    pub params: serde::Value,
    /// Kind-specific configuration (policy, `AdtsConfig`, rotation, ...).
    pub config: serde::Value,
}

/// Hash the key material for one sweep point.
///
/// `mix`, `params` and `config` are serialized to canonical JSON; any
/// single-field change in any of them changes the key.
pub fn point_key<M, P, C>(kind: &str, mix: &M, params: &P, config: &C) -> CacheKey
where
    M: Serialize,
    P: Serialize,
    C: Serialize,
{
    let material = KeyMaterial {
        schema: KEY_SCHEMA,
        salt: CODE_SALT.to_string(),
        kind: kind.to_string(),
        mix: mix.to_value(),
        params: params.to_value(),
        config: config.to_value(),
    };
    key_of_material(&material)
}

fn key_of_material(material: &KeyMaterial) -> CacheKey {
    CacheKey(fnv1a_128(serde::json::to_string(material).as_bytes()))
}

/// On-disk cache of serialized sweep results.
pub struct ResultCache {
    dir: PathBuf,
    tmp_seq: AtomicU64,
}

impl ResultCache {
    /// Open (and create if needed) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// Directory this cache stores entries under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Look up `key`. Corrupt entries are removed and reported as misses
    /// so a bad write can never wedge a sweep.
    pub fn load<T: Deserialize>(&self, key: CacheKey) -> Option<T> {
        let path = self.entry_path(key);
        let text = std::fs::read_to_string(&path).ok()?;
        let value = serde::json::from_str::<T>(&text).ok();
        if value.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        value
    }

    /// Store `value` under `key` via temp-file + atomic rename. Storage
    /// failures are non-fatal: the sweep already has the result in memory.
    pub fn store<T: Serialize>(&self, key: CacheKey, value: &T) {
        let text = serde::json::to_string(value);
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".{}.{}.{}.tmp", key.hex(), std::process::id(), seq));
        let write = std::fs::write(&tmp, text.as_bytes())
            .and_then(|()| std::fs::rename(&tmp, self.entry_path(key)));
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            eprintln!("warning: sweep cache write for {} failed: {e}", key.hex());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
    struct Payload {
        label: String,
        xs: Vec<f64>,
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("smt-adts-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = tmp_dir("rt");
        let cache = ResultCache::new(&dir).unwrap();
        let key = point_key("fixed", &"mix", &1u32, &"cfg");
        assert_eq!(cache.load::<Payload>(key), None);
        let p = Payload {
            label: "x".into(),
            xs: vec![0.1, 2.0, f64::MAX],
        };
        cache.store(key, &p);
        assert_eq!(cache.load::<Payload>(key), Some(p));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_a_miss_and_removed() {
        let dir = tmp_dir("corrupt");
        let cache = ResultCache::new(&dir).unwrap();
        let key = point_key("fixed", &"mix", &2u32, &"cfg");
        std::fs::write(dir.join(format!("{}.json", key.hex())), b"{not json").unwrap();
        assert_eq!(cache.load::<Payload>(key), None);
        assert!(!dir.join(format!("{}.json", key.hex())).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_distinguishes_kind_and_config() {
        let base = point_key("fixed", &"m", &1u32, &"c");
        assert_ne!(base, point_key("adaptive", &"m", &1u32, &"c"));
        assert_ne!(base, point_key("fixed", &"m2", &1u32, &"c"));
        assert_ne!(base, point_key("fixed", &"m", &2u32, &"c"));
        assert_ne!(base, point_key("fixed", &"m", &1u32, &"c2"));
        assert_eq!(base, point_key("fixed", &"m", &1u32, &"c"));
    }
}
