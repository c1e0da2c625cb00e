//! Per-rank communication endpoints.
//!
//! An [`Endpoint`] is one rank's window onto the interconnect. Ranks
//! live on real threads; all timing is virtual. Point-to-point messages
//! carry their analytically computed arrival time; the receiver's clock
//! jumps to `max(local, arrival)` plus the bounce-buffer copy cost
//! (§4.2 of the paper — QsNet's direct user-space writes force the
//! tracked receive path through a copy). Collectives rendezvous on the
//! participants' clocks and add a binomial-tree cost model.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use ickpt_sim::rendezvous::Combine;
use ickpt_sim::{BandwidthDevice, Rendezvous, SimDuration, SimTime, WorkerGate};

use crate::mailbox::{Mailbox, Msg};
use crate::qsnet::NetConfig;

/// How long a blocking `recv` waits on the real clock before reporting
/// a deadlock. Simulated runs complete in seconds; a miss means a
/// mismatched send/recv script.
const RECV_WALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Networking errors.
#[derive(Debug)]
pub enum NetError {
    /// No matching message arrived within the wall-clock guard.
    RecvTimeout { rank: usize, from: usize, tag: u32 },
    /// The peer channels were dropped (peer thread exited).
    Disconnected { rank: usize, peer: usize },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::RecvTimeout { rank, from, tag } => {
                write!(f, "rank {rank}: recv(from={from}, tag={tag}) timed out — mismatched send/recv script?")
            }
            NetError::Disconnected { rank, peer } => {
                write!(f, "rank {rank}: channel to peer {peer} disconnected")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// Result of a completed receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvInfo {
    /// Payload size.
    pub bytes: u64,
    /// When the message arrived at the NIC.
    pub arrival: SimTime,
    /// Caller's new local time: `max(local, arrival)` + copy cost.
    pub new_time: SimTime,
}

/// Result of an allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllreduceInfo {
    /// Caller's new local time.
    pub new_time: SimTime,
    /// Combined value.
    pub value: u64,
    /// Bytes this rank received during the collective (traffic
    /// accounting for Fig 1(b)).
    pub bytes_received: u64,
}

/// A communicator: builds the per-rank endpoints.
pub struct CommWorld {
    config: NetConfig,
    nranks: usize,
}

impl CommWorld {
    /// A world of `nranks` ranks over `config`.
    pub fn new(nranks: usize, config: NetConfig) -> Self {
        assert!(nranks > 0);
        Self { config, nranks }
    }

    /// Build all endpoints. Each endpoint must move to its rank's
    /// thread.
    pub fn endpoints(&self) -> Vec<Endpoint> {
        let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(self.nranks);
        let mut receivers: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(self.nranks);
        for _ in 0..self.nranks {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(Some(rx));
        }
        let rendezvous = Arc::new(Rendezvous::new(self.nranks));
        receivers
            .iter_mut()
            .enumerate()
            .map(|(rank, rx)| Endpoint {
                rank,
                nranks: self.nranks,
                config: self.config.clone(),
                nic: self.config.build_nic(),
                to_peers: senders.clone(),
                inbox: rx.take().expect("each receiver taken once"),
                pending: Mailbox::new(),
                rendezvous: rendezvous.clone(),
                gate: None,
                bytes_sent: 0,
                bytes_received: 0,
                msgs_sent: 0,
                msgs_received: 0,
            })
            .collect()
    }
}

/// One rank's communication endpoint.
pub struct Endpoint {
    rank: usize,
    nranks: usize,
    config: NetConfig,
    /// This rank's NIC: injection serialization and arrival timing.
    nic: BandwidthDevice,
    to_peers: Vec<Sender<Msg>>,
    inbox: Receiver<Msg>,
    /// Out-of-order messages awaiting a matching recv.
    pending: Mailbox,
    rendezvous: Arc<Rendezvous>,
    /// Execution-slot gate: released around every blocking wait so a
    /// capped thread pool can never deadlock on rendezvous peers.
    gate: Option<Arc<WorkerGate>>,
    bytes_sent: u64,
    bytes_received: u64,
    msgs_sent: u64,
    msgs_received: u64,
}

impl Endpoint {
    /// This endpoint's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Install an execution-slot gate. The calling thread must already
    /// hold a permit; every blocking wait inside this endpoint then
    /// releases it for the duration of the wait and reacquires on wake,
    /// so a capped pool of OS threads can host arbitrarily many ranks
    /// without rendezvous deadlock.
    pub fn set_worker_gate(&mut self, gate: Arc<WorkerGate>) {
        self.gate = Some(gate);
    }

    /// Run `f` (a blocking virtual-time wait) with this thread's
    /// execution permit released, reacquiring it before returning.
    fn gated<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let gate = self.gate.clone();
        if let Some(g) = &gate {
            g.release();
        }
        let out = f(self);
        if let Some(g) = &gate {
            g.acquire();
        }
        out
    }

    /// Eager send of `bytes` to `dst` with `tag` at local time `now`.
    /// Returns the sender's new local time (after handing the buffer to
    /// the NIC); the transfer itself pipelines on the NIC.
    pub fn send(
        &mut self,
        now: SimTime,
        dst: usize,
        tag: u32,
        bytes: u64,
    ) -> Result<SimTime, NetError> {
        assert!(dst < self.nranks, "send to unknown rank {dst}");
        // Hand-off: copy into the NIC's buffer at memory bandwidth.
        let handoff = self.config.send_handoff_time(now, bytes);
        // Wire: serialize on this rank's NIC, then link latency.
        let arrival = self.nic.transfer(now, bytes);
        self.to_peers[dst]
            .send(Msg { src: self.rank, tag, bytes, arrival })
            .map_err(|_| NetError::Disconnected { rank: self.rank, peer: dst })?;
        self.bytes_sent += bytes;
        self.msgs_sent += 1;
        Ok(handoff)
    }

    /// Blocking receive of the next message from `src` with `tag`.
    /// Returns arrival/copy timing; the caller is responsible for
    /// pushing the destination pages through its write tracker (the
    /// bounce-buffer copy dirties them).
    pub fn recv(&mut self, now: SimTime, src: usize, tag: u32) -> Result<RecvInfo, NetError> {
        let msg = self.gated(|ep| ep.wait_for(src, tag))?;
        let new_time = self.config.recv_complete_time(now, msg.arrival, msg.bytes);
        self.bytes_received += msg.bytes;
        self.msgs_received += 1;
        Ok(RecvInfo { bytes: msg.bytes, arrival: msg.arrival, new_time })
    }

    fn wait_for(&mut self, src: usize, tag: u32) -> Result<Msg, NetError> {
        if let Some(m) = self.pending.take(src, tag) {
            return Ok(m);
        }
        loop {
            let msg = self
                .inbox
                .recv_timeout(RECV_WALL_TIMEOUT)
                .map_err(|_| NetError::RecvTimeout { rank: self.rank, from: src, tag })?;
            if msg.src == src && msg.tag == tag {
                return Ok(msg);
            }
            self.pending.push(msg);
        }
    }

    /// Barrier across all ranks at local time `now`; returns the new
    /// local time (max of entries + tree cost).
    pub fn barrier(&mut self, now: SimTime) -> SimTime {
        let res = self.gated(|ep| ep.rendezvous.enter(now, 0, Combine::Max));
        self.config.barrier_complete_time(res.time, self.nranks)
    }

    /// Allreduce of `value` (combined with `combine`) over a payload of
    /// `bytes` at local time `now`.
    pub fn allreduce(
        &mut self,
        now: SimTime,
        bytes: u64,
        value: u64,
        combine: Combine,
    ) -> AllreduceInfo {
        let res = self.gated(|ep| ep.rendezvous.enter(now, value, combine));
        let recv_bytes = NetConfig::allreduce_recv_bytes(self.nranks, bytes);
        self.bytes_received += recv_bytes;
        AllreduceInfo {
            new_time: self.config.allreduce_complete_time(res.time, self.nranks, bytes),
            value: res.value,
            bytes_received: recv_bytes,
        }
    }

    /// One-to-all broadcast of `bytes` from `root` (binomial tree).
    /// Returns the new local time and, for non-root ranks, the bytes
    /// received. The value broadcast is the root's `value`.
    pub fn bcast(&mut self, now: SimTime, root: usize, bytes: u64, value: u64) -> AllreduceInfo {
        assert!(root < self.nranks, "bcast from unknown root {root}");
        // Contribute the value only from the root; Sum over {value, 0..}
        // delivers it to everyone.
        let v = if self.rank == root { value } else { 0 };
        let res = self.gated(|ep| ep.rendezvous.enter(now, v, Combine::Sum));
        let stages = NetConfig::tree_stages(self.nranks) as u64;
        let cost = (self.config.collective_stage_latency
            + SimDuration::for_transfer(bytes, self.config.nic_bandwidth))
            * stages;
        let recv = if self.rank == root { 0 } else { bytes };
        self.bytes_received += recv;
        AllreduceInfo { new_time: res.time + cost, value: res.value, bytes_received: recv }
    }

    /// All-to-one reduction of `value` (combined with `combine`) onto
    /// `root`; every rank learns the time, only the root the result is
    /// meaningful for (all ranks receive it here, as with MPI_Reduce
    /// followed by use at the root).
    pub fn reduce(
        &mut self,
        now: SimTime,
        root: usize,
        bytes: u64,
        value: u64,
        combine: Combine,
    ) -> AllreduceInfo {
        assert!(root < self.nranks, "reduce to unknown root {root}");
        let res = self.gated(|ep| ep.rendezvous.enter(now, value, combine));
        let stages = NetConfig::tree_stages(self.nranks) as u64;
        let cost = (self.config.collective_stage_latency
            + SimDuration::for_transfer(bytes, self.config.nic_bandwidth))
            * stages;
        let recv =
            if self.rank == root { NetConfig::tree_stages(self.nranks) as u64 * bytes } else { 0 };
        self.bytes_received += recv;
        AllreduceInfo { new_time: res.time + cost, value: res.value, bytes_received: recv }
    }

    /// Personalized all-to-all of `bytes_per_pair` with every other
    /// rank (FT's FFT transpose): every rank sends and receives
    /// `(P-1) × bytes_per_pair`. Modeled as a synchronizing collective
    /// with a pipelined ring schedule cost.
    pub fn alltoall(&mut self, now: SimTime, bytes_per_pair: u64) -> AllreduceInfo {
        let res = self.gated(|ep| ep.rendezvous.enter(now, 0, Combine::Max));
        let vol = NetConfig::alltoall_volume(self.nranks, bytes_per_pair);
        let new_time = self.config.alltoall_complete_time(res.time, self.nranks, bytes_per_pair);
        self.bytes_received += vol;
        AllreduceInfo { new_time, value: 0, bytes_received: vol }
    }

    /// Gather one u64 from every rank (used by the checkpoint commit to
    /// collect per-rank payload sizes for the manifest). Returns the
    /// values indexed by rank and the caller's new local time; the cost
    /// is that of a single binomial-tree gather of `8 × P` bytes.
    pub fn gather_u64(&mut self, now: SimTime, value: u64) -> (Vec<u64>, SimTime) {
        let mut out = Vec::with_capacity(self.nranks);
        let mut t = now;
        for r in 0..self.nranks {
            let v = if r == self.rank { value } else { 0 };
            let res = self.gated(|ep| ep.rendezvous.enter(t, v, Combine::Sum));
            t = t.max(res.time);
            out.push(res.value);
        }
        let cost = self.config.allreduce_cost(self.nranks, 8 * self.nranks as u64);
        (out, t + cost)
    }

    /// Total payload bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total payload bytes received so far (point-to-point plus
    /// collectives).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Messages sent / received.
    pub fn message_counts(&self) -> (u64, u64) {
        (self.msgs_sent, self.msgs_received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: usize) -> Vec<Endpoint> {
        CommWorld::new(n, NetConfig::qsnet()).endpoints()
    }

    #[test]
    fn ping_pong_advances_clocks() {
        let mut eps = world(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let h = std::thread::spawn(move || {
            let t = b.recv(SimTime::ZERO, 0, 7).unwrap();
            assert_eq!(t.bytes, 1_000_000);
            // Arrival after wire time (~2.9ms at 340MB/s) + latency.
            assert!(t.arrival > SimTime::from_secs_f64(0.0029));
            assert!(t.new_time > t.arrival, "copy cost added");
            t
        });
        let t_send = a.send(SimTime::ZERO, 1, 7, 1_000_000).unwrap();
        assert!(t_send > SimTime::ZERO, "hand-off costs time");
        assert!(t_send < SimTime::from_secs_f64(0.001), "sender does not wait for the wire");
        let info = h.join().unwrap();
        assert!(info.new_time > t_send);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let mut eps = world(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut t = SimTime::ZERO;
        for tag in [1u32, 2, 3] {
            t = a.send(t, 1, tag, 100).unwrap();
        }
        // Receive in reverse tag order: matching must buffer.
        let r3 = b.recv(SimTime::ZERO, 0, 3).unwrap();
        let r1 = b.recv(r3.new_time, 0, 1).unwrap();
        let r2 = b.recv(r1.new_time, 0, 2).unwrap();
        assert!(r1.arrival < r2.arrival && r2.arrival < r3.arrival, "wire order preserved");
        assert_eq!(b.bytes_received(), 300);
    }

    #[test]
    fn fifo_within_same_src_tag() {
        let mut eps = world(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut t = SimTime::ZERO;
        t = a.send(t, 1, 5, 100).unwrap();
        let _ = a.send(t, 1, 5, 200).unwrap();
        let r1 = b.recv(SimTime::ZERO, 0, 5).unwrap();
        let r2 = b.recv(r1.new_time, 0, 5).unwrap();
        assert_eq!(r1.bytes, 100);
        assert_eq!(r2.bytes, 200);
    }

    #[test]
    fn sender_nic_serializes_back_to_back_messages() {
        let mut eps = world(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(SimTime::ZERO, 1, 0, 34_000_000).unwrap(); // 100ms of wire
        a.send(SimTime::ZERO, 1, 0, 34_000_000).unwrap();
        let r1 = b.recv(SimTime::ZERO, 0, 0).unwrap();
        let r2 = b.recv(r1.new_time, 0, 0).unwrap();
        let gap = r2.arrival - r1.arrival;
        assert!(gap >= SimDuration::from_millis(99), "second message queued on the NIC: {gap}");
    }

    #[test]
    fn barrier_synchronizes_to_max() {
        let eps = world(4);
        let times = [3u64, 1, 4, 2];
        let handles: Vec<_> = eps
            .into_iter()
            .zip(times)
            .map(|(mut ep, t)| std::thread::spawn(move || ep.barrier(SimTime::from_secs(t))))
            .collect();
        let outs: Vec<SimTime> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(outs.iter().all(|&t| t == outs[0]));
        assert!(outs[0] > SimTime::from_secs(4), "max entry plus tree cost");
    }

    #[test]
    fn allreduce_combines_and_charges_traffic() {
        let eps = world(4);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, mut ep)| {
                std::thread::spawn(move || {
                    let info =
                        ep.allreduce(SimTime::from_secs(1), 4096, i as u64 + 1, Combine::Sum);
                    (info, ep.bytes_received())
                })
            })
            .collect();
        for h in handles {
            let (info, recvd) = h.join().unwrap();
            assert_eq!(info.value, 10, "1+2+3+4");
            assert_eq!(info.bytes_received, 2 * 4096);
            assert_eq!(recvd, 2 * 4096);
            assert!(info.new_time > SimTime::from_secs(1));
        }
    }

    #[test]
    fn bcast_delivers_root_value() {
        let eps = world(4);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, mut ep)| {
                std::thread::spawn(move || {
                    let v = if i == 2 { 99 } else { 0 };
                    let info = ep.bcast(SimTime::from_secs(1), 2, 4096, v);
                    (i, info, ep.bytes_received())
                })
            })
            .collect();
        for h in handles {
            let (i, info, recvd) = h.join().unwrap();
            assert_eq!(info.value, 99, "rank {i} gets the root's value");
            if i == 2 {
                assert_eq!(recvd, 0, "root receives nothing");
            } else {
                assert_eq!(recvd, 4096);
            }
            assert!(info.new_time > SimTime::from_secs(1));
        }
    }

    #[test]
    fn reduce_combines_onto_root() {
        let eps = world(4);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(i, mut ep)| {
                std::thread::spawn(move || {
                    let info = ep.reduce(SimTime::ZERO, 0, 8, (i as u64) + 1, Combine::Max);
                    (i, info, ep.bytes_received())
                })
            })
            .collect();
        for h in handles {
            let (i, info, recvd) = h.join().unwrap();
            assert_eq!(info.value, 4, "max of 1..=4");
            if i == 0 {
                assert!(recvd > 0, "root receives the reduction traffic");
            } else {
                assert_eq!(recvd, 0);
            }
        }
    }

    #[test]
    fn recv_timeout_reports_mismatch() {
        // Use a tiny timeout via a direct wait: we cannot easily
        // shorten the constant, so instead check that a message with
        // the wrong tag does not satisfy the recv and is buffered.
        let mut eps = world(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(SimTime::ZERO, 1, 1, 10).unwrap();
        a.send(SimTime::ZERO, 1, 2, 20).unwrap();
        let r = b.recv(SimTime::ZERO, 0, 2).unwrap();
        assert_eq!(r.bytes, 20);
        // The tag-1 message is still deliverable.
        let r = b.recv(SimTime::ZERO, 0, 1).unwrap();
        assert_eq!(r.bytes, 10);
    }

    #[test]
    fn disconnected_peer_is_an_error() {
        let mut eps = world(2);
        let _b = eps.pop(); // drop rank 1's endpoint (and its inbox)
        let mut a = eps.pop().unwrap();
        drop(_b);
        match a.send(SimTime::ZERO, 1, 0, 10) {
            Err(NetError::Disconnected { peer: 1, .. }) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }
}
