//! The fleet's shard lease table: the state machine that makes a
//! fleet survive dying runners.
//!
//! Every shard of every fleet campaign is one slot walking
//!
//! ```text
//! queued ──acquire──▶ leased ──complete──▶ done
//!   ▲                   │
//!   │    fail/expire    │ attempts < max_attempts: backoff re-queue
//!   └───────────────────┤
//!                       └ attempts ≥ max_attempts ──▶ poisoned
//! ```
//!
//! A lease is wall-clock bounded: the holder renews it by heartbeat, and
//! [`LeaseTable::reap`] expires any lease not renewed within the TTL —
//! covering runners that vanish without reporting. An explicit
//! [`LeaseTable::fail`] re-queues immediately (with backoff) and may
//! carry the holder's partial journal, which the next holder receives in
//! its grant so completed jobs are never re-simulated.
//!
//! The table is pure state + an injected clock (milliseconds since an
//! arbitrary epoch): no threads, no I/O, no `Instant`. The server
//! drives it under its mutex; the unit tests drive it with a fake clock.

/// Retry/backoff policy for one table.
#[derive(Debug, Clone, Copy)]
pub struct LeasePolicy {
    /// Lease lifetime: a lease not heartbeat-renewed within this many
    /// milliseconds is expired by [`LeaseTable::reap`].
    pub ttl_ms: u64,
    /// How many leases a shard may consume before it is poisoned.
    pub max_attempts: u64,
    /// First re-queue backoff; doubles per failed attempt.
    pub backoff_base_ms: u64,
    /// Backoff ceiling.
    pub backoff_cap_ms: u64,
}

impl Default for LeasePolicy {
    fn default() -> LeasePolicy {
        LeasePolicy {
            ttl_ms: 10_000,
            max_attempts: 3,
            backoff_base_ms: 250,
            backoff_cap_ms: 5_000,
        }
    }
}

/// Names one shard of one fleet campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardKey {
    /// The coordinator's campaign id.
    pub campaign: u64,
    /// The shard index within that campaign's geometry.
    pub shard: u32,
}

/// Where a slot is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    /// Waiting for a runner; not leasable before `not_before`.
    Queued { not_before: u64 },
    /// Held by a runner under a live lease.
    Leased {
        lease: u64,
        runner: u64,
        expires: u64,
    },
    /// Completed; the result lives in the store.
    Done,
    /// Burned through every allowed lease; the campaign completes
    /// degraded without it.
    Poisoned,
}

struct Slot {
    key: ShardKey,
    phase: Phase,
    /// Leases consumed so far (1-based once leased).
    attempts: u64,
    /// The most recent partial journal uploaded for this shard; handed
    /// to the next lease holder for resumption.
    journal: Option<String>,
}

/// One granted lease, as returned by [`LeaseTable::acquire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Granted {
    /// The lease id the holder must quote in heartbeats and reports.
    pub lease_id: u64,
    /// Which shard the lease covers.
    pub key: ShardKey,
    /// Which attempt this lease is (1 = first holder).
    pub attempt: u64,
    /// A previous holder's partial journal to resume from, if any.
    pub journal: Option<String>,
}

/// How a lease ended, as reported by [`LeaseTable::fail`] and
/// [`LeaseTable::reap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Requeued {
    /// The shard went back to the queue (leasable after backoff).
    Retrying,
    /// The shard exhausted its attempts and is poisoned.
    Poisoned,
}

/// Monotonic totals for `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseCounters {
    /// Leases handed out.
    pub granted: u64,
    /// Leases reaped after missing their TTL.
    pub expired: u64,
    /// Leases explicitly failed by their holder.
    pub failed: u64,
    /// Re-queues (every expiry/failure of a non-poisoned shard).
    pub retried: u64,
    /// Shards poisoned.
    pub poisoned: u64,
    /// Shards completed.
    pub completed: u64,
}

/// Instantaneous phase counts for `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseSnapshot {
    /// Slots waiting for a runner.
    pub queued: u64,
    /// Slots under a live lease.
    pub leased: u64,
    /// Slots done.
    pub done: u64,
    /// Slots poisoned.
    pub poisoned: u64,
}

/// The lease table. All time parameters are milliseconds on the caller's
/// clock; the table never reads a clock itself.
pub struct LeaseTable {
    policy: LeasePolicy,
    slots: Vec<Slot>,
    next_lease: u64,
    counters: LeaseCounters,
}

impl LeaseTable {
    /// An empty table under `policy`.
    pub fn new(policy: LeasePolicy) -> LeaseTable {
        LeaseTable {
            policy,
            slots: Vec::new(),
            next_lease: 1,
            counters: LeaseCounters::default(),
        }
    }

    /// Add a shard to the queue, immediately leasable. Enqueuing a key
    /// already in the table is a no-op (idempotent resubmission).
    pub fn enqueue(&mut self, key: ShardKey) {
        if self.slots.iter().any(|slot| slot.key == key) {
            return;
        }
        self.slots.push(Slot {
            key,
            phase: Phase::Queued { not_before: 0 },
            attempts: 0,
            journal: None,
        });
    }

    /// Lease the first shard whose backoff has elapsed, FIFO by
    /// enqueue order. `None` when nothing is leasable right now.
    pub fn acquire(&mut self, now: u64, runner: u64) -> Option<Granted> {
        let slot = self
            .slots
            .iter_mut()
            .find(|slot| matches!(slot.phase, Phase::Queued { not_before } if not_before <= now))?;
        let lease_id = self.next_lease;
        self.next_lease += 1;
        slot.attempts += 1;
        slot.phase = Phase::Leased {
            lease: lease_id,
            runner,
            expires: now + self.policy.ttl_ms,
        };
        self.counters.granted += 1;
        Some(Granted {
            lease_id,
            key: slot.key,
            attempt: slot.attempts,
            journal: slot.journal.clone(),
        })
    }

    /// Renew a lease. `false` means the lease is no longer live (it
    /// expired, completed, or never existed) — the holder must stop.
    pub fn heartbeat(&mut self, now: u64, lease_id: u64) -> bool {
        let ttl = self.policy.ttl_ms;
        match self.slot_by_lease(lease_id) {
            Some(slot) => {
                let Phase::Leased { expires, .. } = &mut slot.phase else {
                    unreachable!("slot_by_lease only returns leased slots");
                };
                *expires = now + ttl;
                true
            }
            None => false,
        }
    }

    /// The shard a live lease covers; `None` for a stale lease.
    pub fn leased(&self, lease_id: u64) -> Option<ShardKey> {
        self.slots
            .iter()
            .find(|slot| matches!(slot.phase, Phase::Leased { lease, .. } if lease == lease_id))
            .map(|slot| slot.key)
    }

    /// Complete a lease. Returns the shard key when the lease was still
    /// live (the caller has stored the result); `None` for a stale lease
    /// — the shard was re-queued or finished by someone else, and the
    /// late result must be discarded.
    pub fn complete(&mut self, lease_id: u64) -> Option<ShardKey> {
        let slot = self.slot_by_lease(lease_id)?;
        slot.phase = Phase::Done;
        slot.journal = None;
        let key = slot.key;
        self.counters.completed += 1;
        Some(key)
    }

    /// Fail a lease, optionally uploading the holder's partial journal
    /// for the next holder. Returns what happened to the shard, or
    /// `None` for a stale lease.
    pub fn fail(&mut self, now: u64, lease_id: u64, journal: Option<String>) -> Option<Requeued> {
        let live = self.slot_by_lease(lease_id)?;
        if journal.is_some() {
            live.journal = journal;
        }
        let index = self
            .slots
            .iter()
            .position(|slot| matches!(slot.phase, Phase::Leased { lease, .. } if lease == lease_id))
            .expect("slot_by_lease found it");
        self.counters.failed += 1;
        Some(self.requeue(index, now))
    }

    /// Expire every lease past its TTL, re-queuing (or poisoning) the
    /// shards. Returns the affected shards.
    pub fn reap(&mut self, now: u64) -> Vec<(ShardKey, Requeued)> {
        let expired: Vec<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(
                |(_, slot)| matches!(slot.phase, Phase::Leased { expires, .. } if expires <= now),
            )
            .map(|(i, _)| i)
            .collect();
        expired
            .into_iter()
            .map(|i| {
                self.counters.expired += 1;
                let outcome = self.requeue(i, now);
                (self.slots[i].key, outcome)
            })
            .collect()
    }

    /// Drop every slot that is not done, returning the queued/leased
    /// shard keys (graceful shutdown writes their specs to the drain
    /// file). Poisoned shards are not drained — resubmission after a
    /// restart gives them a fresh attempt budget anyway.
    pub fn drain(&mut self) -> Vec<ShardKey> {
        let mut drained = Vec::new();
        self.slots.retain(|slot| match slot.phase {
            Phase::Queued { .. } | Phase::Leased { .. } => {
                drained.push(slot.key);
                false
            }
            Phase::Done => true,
            Phase::Poisoned => false,
        });
        drained
    }

    /// The monotonic totals.
    pub fn counters(&self) -> LeaseCounters {
        self.counters
    }

    /// The instantaneous phase counts.
    pub fn snapshot(&self) -> LeaseSnapshot {
        let mut snapshot = LeaseSnapshot::default();
        for slot in &self.slots {
            match slot.phase {
                Phase::Queued { .. } => snapshot.queued += 1,
                Phase::Leased { .. } => snapshot.leased += 1,
                Phase::Done => snapshot.done += 1,
                Phase::Poisoned => snapshot.poisoned += 1,
            }
        }
        snapshot
    }

    /// Phase of one campaign's shards: `(done, poisoned, total)` — the
    /// campaign is terminal when `done + poisoned == total`.
    pub fn campaign_progress(&self, campaign: u64) -> (u32, u32, u32) {
        let mut done = 0;
        let mut poisoned = 0;
        let mut total = 0;
        for slot in &self.slots {
            if slot.key.campaign != campaign {
                continue;
            }
            total += 1;
            match slot.phase {
                Phase::Done => done += 1,
                Phase::Poisoned => poisoned += 1,
                _ => {}
            }
        }
        (done, poisoned, total)
    }

    /// The poisoned shard indices of one campaign, ascending.
    pub fn poisoned_shards(&self, campaign: u64) -> Vec<u32> {
        let mut missing: Vec<u32> = self
            .slots
            .iter()
            .filter(|slot| slot.key.campaign == campaign && slot.phase == Phase::Poisoned)
            .map(|slot| slot.key.shard)
            .collect();
        missing.sort_unstable();
        missing
    }

    /// How many attempts a shard has consumed (0 if unknown).
    pub fn attempts(&self, key: ShardKey) -> u64 {
        self.slots
            .iter()
            .find(|slot| slot.key == key)
            .map_or(0, |slot| slot.attempts)
    }

    fn slot_by_lease(&mut self, lease_id: u64) -> Option<&mut Slot> {
        self.slots
            .iter_mut()
            .find(|slot| matches!(slot.phase, Phase::Leased { lease, .. } if lease == lease_id))
    }

    /// Send a leased slot back to the queue with exponential backoff, or
    /// poison it when its attempt budget is spent.
    fn requeue(&mut self, index: usize, now: u64) -> Requeued {
        let slot = &mut self.slots[index];
        if slot.attempts >= self.policy.max_attempts {
            slot.phase = Phase::Poisoned;
            self.counters.poisoned += 1;
            return Requeued::Poisoned;
        }
        // attempts ≥ 1 here: only leased slots are re-queued.
        let backoff = self
            .policy
            .backoff_base_ms
            .saturating_mul(1u64 << (slot.attempts - 1).min(32))
            .min(self.policy.backoff_cap_ms);
        slot.phase = Phase::Queued {
            not_before: now + backoff,
        };
        self.counters.retried += 1;
        Requeued::Retrying
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(campaign: u64, shard: u32) -> ShardKey {
        ShardKey { campaign, shard }
    }

    fn policy() -> LeasePolicy {
        LeasePolicy {
            ttl_ms: 100,
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 35,
        }
    }

    #[test]
    fn fifo_acquire_and_complete() {
        let mut table = LeaseTable::new(policy());
        table.enqueue(key(1, 0));
        table.enqueue(key(1, 1));
        table.enqueue(key(1, 0)); // idempotent
        let a = table.acquire(0, 7).unwrap();
        assert_eq!((a.key, a.attempt, a.journal), (key(1, 0), 1, None));
        let b = table.acquire(0, 8).unwrap();
        assert_eq!(b.key, key(1, 1));
        assert!(table.acquire(0, 9).is_none());
        assert_eq!(table.complete(a.lease_id), Some(key(1, 0)));
        // Completing again is stale.
        assert_eq!(table.complete(a.lease_id), None);
        assert_eq!(table.campaign_progress(1), (1, 0, 2));
        assert_eq!(table.complete(b.lease_id), Some(key(1, 1)));
        assert_eq!(table.campaign_progress(1), (2, 0, 2));
        assert_eq!(table.counters().completed, 2);
        assert_eq!(table.snapshot().done, 2);
    }

    #[test]
    fn heartbeat_extends_and_reap_expires() {
        let mut table = LeaseTable::new(policy());
        table.enqueue(key(1, 0));
        let grant = table.acquire(0, 7).unwrap();
        // Renewed at 90: survives the reap at 150.
        assert!(table.heartbeat(90, grant.lease_id));
        assert!(table.reap(150).is_empty());
        // Not renewed again: expires at 190.
        let reaped = table.reap(190);
        assert_eq!(reaped, vec![(key(1, 0), Requeued::Retrying)]);
        assert_eq!(table.counters().expired, 1);
        assert_eq!(table.counters().retried, 1);
        // The dead holder's heartbeat and completion are now stale.
        assert!(!table.heartbeat(191, grant.lease_id));
        assert_eq!(table.complete(grant.lease_id), None);
        // Backoff: attempt 1 failed → not leasable for backoff_base_ms.
        assert!(table.acquire(195, 8).is_none());
        let again = table.acquire(200, 8).unwrap();
        assert_eq!(again.attempt, 2);
    }

    #[test]
    fn fail_uploads_journal_for_next_holder() {
        let mut table = LeaseTable::new(policy());
        table.enqueue(key(1, 0));
        let first = table.acquire(0, 7).unwrap();
        assert_eq!(
            table.fail(50, first.lease_id, Some("partial journal".to_string())),
            Some(Requeued::Retrying)
        );
        // Stale fail is ignored.
        assert_eq!(table.fail(50, first.lease_id, None), None);
        let second = table.acquire(60, 8).unwrap();
        assert_eq!(second.attempt, 2);
        assert_eq!(second.journal.as_deref(), Some("partial journal"));
        // An expiry without an upload keeps the previous journal.
        let reaped = table.reap(200);
        assert_eq!(reaped.len(), 1);
        let third = table.acquire(300, 9).unwrap();
        assert_eq!(third.attempt, 3);
        assert_eq!(third.journal.as_deref(), Some("partial journal"));
        // Completion clears it.
        assert_eq!(table.complete(third.lease_id), Some(key(1, 0)));
    }

    #[test]
    fn attempts_exhaustion_poisons() {
        let mut table = LeaseTable::new(policy());
        table.enqueue(key(3, 2));
        let mut now = 0;
        for attempt in 1..=2 {
            now += 1000;
            let grant = table.acquire(now, 7).unwrap();
            assert_eq!(grant.attempt, attempt);
            assert_eq!(
                table.fail(now, grant.lease_id, None),
                Some(Requeued::Retrying)
            );
        }
        now += 1000;
        let last = table.acquire(now, 7).unwrap();
        assert_eq!(last.attempt, 3);
        assert_eq!(
            table.fail(now, last.lease_id, None),
            Some(Requeued::Poisoned)
        );
        assert!(table.acquire(now + 10_000, 7).is_none());
        assert_eq!(table.campaign_progress(3), (0, 1, 1));
        assert_eq!(table.poisoned_shards(3), vec![2]);
        assert_eq!(table.counters().poisoned, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut table = LeaseTable::new(LeasePolicy {
            max_attempts: 10,
            ..policy()
        });
        table.enqueue(key(1, 0));
        let mut now = 0;
        // Backoffs: 10, 20, 35 (capped), 35 …
        for expected in [10u64, 20, 35, 35] {
            let grant = table.acquire(now, 1).unwrap();
            table.fail(now, grant.lease_id, None);
            assert!(table.acquire(now + expected - 1, 1).is_none());
            now += expected;
        }
    }

    #[test]
    fn drain_returns_incomplete_shards() {
        let mut table = LeaseTable::new(policy());
        for shard in 0..4 {
            table.enqueue(key(1, shard));
        }
        let done = table.acquire(0, 7).unwrap();
        table.complete(done.lease_id);
        let _held = table.acquire(0, 8).unwrap();
        let drained = table.drain();
        // Shard 0 completed; 1 (leased) and 2, 3 (queued) drain.
        assert_eq!(drained, vec![key(1, 1), key(1, 2), key(1, 3)]);
        assert_eq!(table.snapshot().done, 1);
        assert_eq!(table.snapshot().queued + table.snapshot().leased, 0);
    }
}
