//! Bandwidth partitioning across tenants: deficit round-robin
//! fair-share, plus FIFO and strict-priority baselines.
//!
//! The unit of scheduling is one stripe chunk (admission splits every
//! request into stripe-chunk jobs), so fairness is byte-granular: a
//! small tenant's two chunks interleave with a large tenant's two
//! hundred instead of queuing behind them. DRR quanta are
//! weight-proportional (quantum = weight × quantum base, with the
//! base clamped to at least the largest chunk so every round can make
//! progress), which yields weighted max-min bandwidth shares without
//! per-pick sorting — each pick is O(1) amortized.
//!
//! All three policies break ties by tenant id and preserve per-tenant
//! FIFO order, so a pick sequence is a pure function of the enqueue
//! sequence — the determinism the service report contract needs.

use std::collections::VecDeque;

/// One stripe chunk waiting for array service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkJob {
    /// Owning tenant.
    pub tenant: u32,
    /// Request sequence number within the tenant.
    pub req: u64,
    /// Chunk payload bytes.
    pub bytes: u64,
}

/// How the service partitions array bandwidth between tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Deficit round-robin with weight-proportional quanta.
    #[default]
    FairShare,
    /// Global arrival order, no partitioning (head-of-line blocking).
    Fifo,
    /// Highest weight always wins; ties by tenant id.
    StrictPriority,
}

impl SchedPolicy {
    /// Stable lowercase token for tables and knobs.
    pub fn token(&self) -> &'static str {
        match self {
            SchedPolicy::FairShare => "fair-share",
            SchedPolicy::Fifo => "fifo",
            SchedPolicy::StrictPriority => "strict-priority",
        }
    }
}

/// See the module docs.
pub struct Scheduler {
    policy: SchedPolicy,
    /// Per-tenant FIFO chunk queues.
    queues: Vec<VecDeque<ChunkJob>>,
    /// DRR state: active tenant ring, per-tenant deficit and quantum.
    ring: VecDeque<u32>,
    in_ring: Vec<bool>,
    deficit: Vec<u64>,
    quantum: Vec<u64>,
    /// Strict-priority service order: (weight desc, id asc).
    prio_order: Vec<u32>,
    /// FIFO: global arrival order.
    fifo: VecDeque<ChunkJob>,
    queued: u64,
}

impl Scheduler {
    /// A scheduler for `weights.len()` tenants. `quantum_base` is the
    /// DRR quantum per weight unit; pass the stripe-chunk size so one
    /// round always covers at least one chunk.
    pub fn new(policy: SchedPolicy, weights: &[u32], quantum_base: u64) -> Self {
        let n = weights.len();
        let base = quantum_base.max(1);
        let mut prio_order: Vec<u32> = (0..n as u32).collect();
        prio_order.sort_by_key(|&t| (std::cmp::Reverse(weights[t as usize]), t));
        Scheduler {
            policy,
            queues: vec![VecDeque::new(); n],
            ring: VecDeque::new(),
            in_ring: vec![false; n],
            deficit: vec![0; n],
            quantum: weights.iter().map(|&w| base.saturating_mul(w.max(1) as u64)).collect(),
            prio_order,
            fifo: VecDeque::new(),
            queued: 0,
        }
    }

    /// Chunks waiting (not yet picked).
    #[cfg(test)]
    fn queued(&self) -> u64 {
        self.queued
    }

    /// Add one chunk job.
    pub fn enqueue(&mut self, job: ChunkJob) {
        let t = job.tenant as usize;
        assert!(t < self.queues.len(), "unknown tenant {t}");
        self.queued += 1;
        match self.policy {
            SchedPolicy::Fifo => self.fifo.push_back(job),
            SchedPolicy::FairShare => {
                self.queues[t].push_back(job);
                if !self.in_ring[t] {
                    self.in_ring[t] = true;
                    self.ring.push_back(job.tenant);
                }
            }
            SchedPolicy::StrictPriority => self.queues[t].push_back(job),
        }
    }

    /// Pick the next chunk to serve (the scheduling decision), or `None` when idle.
    pub fn pick(&mut self) -> Option<ChunkJob> {
        let picked = match self.policy {
            SchedPolicy::Fifo => self.fifo.pop_front(),
            SchedPolicy::StrictPriority => {
                let t = self.prio_order.iter().find(|&&t| !self.queues[t as usize].is_empty());
                t.copied().and_then(|t| self.queues[t as usize].pop_front())
            }
            SchedPolicy::FairShare => self.next_drr(),
        };
        if picked.is_some() {
            self.queued -= 1;
        }
        picked
    }

    /// Classic DRR: visit the head of the ring; an empty queue leaves
    /// the ring (deficit reset), an affordable head chunk is served,
    /// otherwise the tenant earns a quantum and rotates to the back.
    fn next_drr(&mut self) -> Option<ChunkJob> {
        loop {
            let t = *self.ring.front()?;
            let ti = t as usize;
            let Some(&head) = self.queues[ti].front() else {
                self.ring.pop_front();
                self.in_ring[ti] = false;
                self.deficit[ti] = 0;
                continue;
            };
            if self.deficit[ti] >= head.bytes {
                self.deficit[ti] -= head.bytes;
                return self.queues[ti].pop_front();
            }
            self.deficit[ti] = self.deficit[ti].saturating_add(self.quantum[ti]);
            self.ring.rotate_left(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tenant: u32, req: u64, bytes: u64) -> ChunkJob {
        ChunkJob { tenant, req, bytes }
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut s = Scheduler::new(SchedPolicy::Fifo, &[1, 1], 100);
        s.enqueue(job(0, 0, 10));
        s.enqueue(job(0, 0, 10));
        s.enqueue(job(1, 0, 10));
        let order: Vec<u32> = std::iter::from_fn(|| s.pick()).map(|j| j.tenant).collect();
        assert_eq!(order, vec![0, 0, 1]);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn drr_interleaves_equal_weights() {
        let mut s = Scheduler::new(SchedPolicy::FairShare, &[1, 1], 10);
        for _ in 0..3 {
            s.enqueue(job(0, 0, 10));
            s.enqueue(job(1, 0, 10));
        }
        let order: Vec<u32> = std::iter::from_fn(|| s.pick()).map(|j| j.tenant).collect();
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn drr_weights_shape_service_ratio() {
        // Weight 3 vs weight 1, equal chunk sizes: over any window the
        // heavy tenant gets ~3x the picks.
        let mut s = Scheduler::new(SchedPolicy::FairShare, &[3, 1], 10);
        for _ in 0..40 {
            s.enqueue(job(0, 0, 10));
        }
        for _ in 0..40 {
            s.enqueue(job(1, 0, 10));
        }
        let first16: Vec<u32> = (0..16).filter_map(|_| s.pick()).map(|j| j.tenant).collect();
        let heavy = first16.iter().filter(|&&t| t == 0).count();
        assert_eq!(heavy, 12, "3:1 weights → 12 of 16 picks, got {first16:?}");
    }

    #[test]
    fn strict_priority_starves_light_tenants() {
        let mut s = Scheduler::new(SchedPolicy::StrictPriority, &[1, 5], 10);
        s.enqueue(job(0, 0, 10));
        s.enqueue(job(1, 0, 10));
        s.enqueue(job(1, 1, 10));
        let order: Vec<u32> = std::iter::from_fn(|| s.pick()).map(|j| j.tenant).collect();
        assert_eq!(order, vec![1, 1, 0]);
    }

    #[test]
    fn drr_handles_chunks_larger_than_one_quantum() {
        // Chunk of 35 with quantum 10: tenant banks deficit over
        // rounds and still progresses.
        let mut s = Scheduler::new(SchedPolicy::FairShare, &[1], 10);
        s.enqueue(job(0, 0, 35));
        assert_eq!(s.pick(), Some(job(0, 0, 35)));
        assert_eq!(s.pick(), None);
    }

    #[test]
    fn pick_sequence_is_deterministic() {
        let run = || {
            let mut s = Scheduler::new(SchedPolicy::FairShare, &[2, 1, 1], 16);
            for i in 0..30u64 {
                s.enqueue(job((i % 3) as u32, i, 8 + i % 5));
            }
            std::iter::from_fn(|| s.pick()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
