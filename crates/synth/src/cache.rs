//! Process-wide memoization of [`generate`].
//!
//! Generation is deterministic per `(spec, seed)` — the generator seeds
//! its RNG from exactly those two values — so the result can be shared
//! behind an [`Arc`] by every consumer that asks for the same pair: the
//! sweep executor fanning one dataset across ten learners, the
//! experiment grid revisiting it for every learner and variant, and the
//! case studies of `experiments/*`. The cache is bounded (FIFO) so a
//! full-registry sweep cannot pin all 55 datasets in memory at once.

use crate::generate::generate;
use crate::spec::StreamSpec;
use oeb_tabular::StreamDataset;
use oeb_trace::Counter;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

// Hit/miss/evict accounting. Lookups happen under the global cache lock,
// so the counts depend only on the key sequence, not on scheduling.
static CACHE_HIT: Counter = Counter::new("synth.cache.hit");
static CACHE_MISS: Counter = Counter::new("synth.cache.miss");
static CACHE_EVICT: Counter = Counter::new("synth.cache.evict");

struct GenCache {
    map: HashMap<(String, u64), Arc<StreamDataset>>,
    order: VecDeque<(String, u64)>,
}

static CACHE: Mutex<Option<GenCache>> = Mutex::new(None);

/// Number of `(spec, seed)` entries kept resident.
const CAPACITY: usize = 16;

/// Memoized [`generate`]: returns a shared handle to the dataset for
/// `(spec, seed)`, generating it on first request.
///
/// The key is the spec's full `Debug` rendering plus the seed, so any
/// field change (rows, drift pattern, window, ...) is a distinct entry.
pub fn generate_cached(spec: &StreamSpec, seed: u64) -> Arc<StreamDataset> {
    let key = (format!("{spec:?}"), seed);
    let mut guard = CACHE.lock();
    let cache = guard.get_or_insert_with(|| GenCache {
        map: HashMap::new(),
        order: VecDeque::new(),
    });
    if let Some(hit) = cache.map.get(&key) {
        CACHE_HIT.incr();
        return hit.clone();
    }
    CACHE_MISS.incr();
    // Generate while holding the lock: concurrent requests for the same
    // pair would otherwise duplicate the (deterministic) work, and
    // generation is cheap relative to the downstream evaluation.
    let dataset = Arc::new(generate(spec, seed));
    cache.map.insert(key.clone(), dataset.clone());
    cache.order.push_back(key);
    while cache.order.len() > CAPACITY {
        if let Some(evicted) = cache.order.pop_front() {
            cache.map.remove(&evicted);
            CACHE_EVICT.incr();
        }
    }
    dataset
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry_scaled;

    #[test]
    fn second_call_returns_the_same_arc() {
        let entries = registry_scaled(0.02);
        let spec = &entries[0].spec;
        let a = generate_cached(spec, 7);
        let b = generate_cached(spec, 7);
        assert!(Arc::ptr_eq(&a, &b), "same (spec, seed) should share");
        let c = generate_cached(spec, 8);
        assert!(!Arc::ptr_eq(&a, &c), "different seed is a different entry");
    }

    #[test]
    fn cached_matches_direct_generation() {
        let entries = registry_scaled(0.02);
        let spec = &entries[1].spec;
        let cached = generate_cached(spec, 3);
        let direct = generate(spec, 3);
        assert_eq!(cached.fingerprint(), direct.fingerprint());
    }
}
