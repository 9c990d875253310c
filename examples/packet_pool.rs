//! DPDK-style packet I/O: fixed buffer pool + RX/TX rings, all wait-free.
//!
//! ```text
//! cargo run --release --example packet_pool
//! ```
//!
//! The paper's introduction points at DPDK/SPDK: "high-speed networking and
//! storage libraries use ring buffers for various purposes when allocating
//! and transferring network frames", and notes those rings are merely
//! "lock-less", i.e. a preempted thread can stall everyone. This example
//! rebuilds that architecture on wCQ:
//!
//! * a **frame pool**: a fixed arena of packet buffers whose free slots
//!   circulate through a wait-free queue of buffer ids (the paper's `fq`
//!   indirection, used directly as an allocator);
//! * an **RX ring** and a **TX ring** connecting a simulated NIC, a worker
//!   pool, and a transmit stage;
//! * drop accounting when the pool runs dry — exactly how a real NIC driver
//!   behaves under overload.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use wcq::WcqQueue;

const FRAME_SIZE: usize = 128; // payload bytes per frame
const POOL_ORDER: u32 = 10; // 1024 frames
const RX_BURSTS: u64 = 50_000;
const BURST: usize = 8;
const WORKERS: usize = 2;

/// A fixed arena of frames. Ownership of `frames[i]` belongs to whoever
/// holds buffer id `i`, which circulates through the pool/RX/TX queues.
struct FramePool {
    frames: Box<[UnsafeCell<[u8; FRAME_SIZE]>]>,
    free: WcqQueue<u32>,
}

// SAFETY: a frame is accessed only by the unique holder of its id; ids move
// between threads through the (SeqCst) queues.
unsafe impl Sync for FramePool {}

impl FramePool {
    fn new(max_threads: usize) -> Self {
        let n = 1usize << POOL_ORDER;
        let pool = FramePool {
            frames: (0..n).map(|_| UnsafeCell::new([0; FRAME_SIZE])).collect(),
            free: WcqQueue::new(POOL_ORDER, max_threads),
        };
        let mut h = pool.free.register().unwrap();
        for i in 0..n as u32 {
            h.enqueue(i).expect("pool fits all ids");
        }
        drop(h);
        pool
    }
}

fn main() {
    let threads = 2 + WORKERS; // nic + tx + workers
    let pool = FramePool::new(threads);
    let rx: WcqQueue<u32> = WcqQueue::new(POOL_ORDER, threads);
    let tx: WcqQueue<u32> = WcqQueue::new(POOL_ORDER, threads);
    let rx_drops = AtomicU64::new(0);
    let processed = AtomicU64::new(0);
    let transmitted = AtomicU64::new(0);
    let nic_done = AtomicBool::new(false);
    let workers_done = AtomicBool::new(false);

    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        // Capture whole structs by reference (edition-2021 disjoint capture
        // would otherwise borrow the non-Sync `frames` field directly,
        // sidestepping FramePool's Sync impl).
        let pool = &pool;
        let (rx, tx) = (&rx, &tx);
        let (rx_drops, processed, transmitted) = (&rx_drops, &processed, &transmitted);
        let (nic_done, workers_done) = (&nic_done, &workers_done);
        // --- simulated NIC RX: allocate a frame, fill it, push to RX ring.
        let nic = s.spawn(move || {
            let mut pool_h = pool.free.register().unwrap();
            let mut rx_h = rx.register().unwrap();
            let mut seq = 0u64;
            for _ in 0..RX_BURSTS {
                for _ in 0..BURST {
                    match pool_h.dequeue() {
                        Some(id) => {
                            // SAFETY: we own frame `id` until it is pushed.
                            let frame = unsafe { &mut *pool.frames[id as usize].get() };
                            frame[..8].copy_from_slice(&seq.to_le_bytes());
                            seq += 1;
                            // Bounded queues can be transiently full while a
                            // consumer is mid-recycle: retry is backpressure.
                            let mut id = id;
                            while let Err(back) = rx_h.enqueue(id) {
                                id = back;
                                std::thread::yield_now();
                            }
                        }
                        None => {
                            rx_drops.fetch_add(1, SeqCst); // pool dry: drop
                        }
                    }
                }
                // Line-rate pacing: without it a single-core host lets the
                // NIC thread starve the pipeline and drop nearly everything.
                std::thread::yield_now();
            }
            nic_done.store(true, SeqCst);
        });
        // --- worker pool: parse frame, "route" it, push to TX ring.
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(move || {
                    let mut rx_h = rx.register().unwrap();
                    let mut tx_h = tx.register().unwrap();
                    let mut local = 0u64;
                    loop {
                        // Read the flag before the dequeue: a miss after
                        // it is conclusive, every frame the NIC sent is
                        // in the ring or taken.
                        let nic_finished = nic_done.load(SeqCst);
                        match rx_h.dequeue() {
                            Some(id) => {
                                // SAFETY: we own frame `id` now.
                                let frame = unsafe { &mut *pool.frames[id as usize].get() };
                                let seq = u64::from_le_bytes(frame[..8].try_into().unwrap());
                                frame[8..16].copy_from_slice(&(seq ^ 0xfeed).to_le_bytes());
                                local += 1;
                                let mut id = id;
                                while let Err(back) = tx_h.enqueue(id) {
                                    id = back;
                                    std::thread::yield_now();
                                }
                            }
                            None if nic_finished => break,
                            None => std::thread::yield_now(),
                        }
                    }
                    processed.fetch_add(local, SeqCst);
                })
            })
            .collect();
        // --- TX stage: "send" and return the frame to the pool.
        let txer = s.spawn(move || {
            let mut tx_h = tx.register().unwrap();
            let mut pool_h = pool.free.register().unwrap();
            let mut local = 0u64;
            loop {
                let workers_finished = workers_done.load(SeqCst); // as above
                match tx_h.dequeue() {
                    Some(id) => {
                        local += 1;
                        let mut id = id;
                        while let Err(back) = pool_h.enqueue(id) {
                            id = back;
                            std::thread::yield_now();
                        }
                    }
                    None if workers_finished => break,
                    None => std::thread::yield_now(),
                }
            }
            transmitted.fetch_add(local, SeqCst);
        });
        nic.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }
        workers_done.store(true, SeqCst);
        txer.join().unwrap();
    });

    let rx_total = RX_BURSTS * BURST as u64;
    let dropped = rx_drops.load(SeqCst);
    let done = transmitted.load(SeqCst);
    println!(
        "NIC offered {rx_total} frames: {done} transmitted, {dropped} dropped (pool exhaustion), {} in-flight",
        rx_total - dropped - done
    );
    println!(
        "throughput ≈ {:.0} Kframes/s across a {}-frame pool ({:.2?} total)",
        done as f64 / t0.elapsed().as_secs_f64() / 1e3,
        1 << POOL_ORDER,
        t0.elapsed()
    );
    assert_eq!(processed.load(SeqCst), done);
    assert_eq!(done + dropped, rx_total);
}
