// Known-bad: any unjustified SeqCst under crates/obs/src/metrics violates the
// documented Relaxed-shards + merge-on-read policy, mixed or not.
fn bump(shard: &AtomicU64) {
    shard.fetch_add(1, Ordering::SeqCst);
}
