//! Fixture: the mistakes a cluster tier invites — wall-clock heartbeat
//! epochs and panicking ring and shard-link lookups. Every marked line
//! fires.

pub fn heartbeat_epoch() -> u64 {
    let tick = Instant::now();
    nanos_since_start(tick)
}

pub fn ring_owner(points: &[(u64, u32)], idx: usize) -> u32 {
    points[idx].1
}

pub fn shard_link(links: &HashMap<u32, Link>, shard: u32) -> Link {
    links.get(&shard).unwrap().clone()
}
