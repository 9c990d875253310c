//! Producer-seat hand-over stress at 4×-core oversubscription.
//!
//! A topology-declared channel gets far more sender clones than it
//! declares seats, all started at once. The senders past the declaration
//! park for a producer seat — in `send`, in `send_timeout` rounds and in
//! `send_async` — and inherit one as each holder finishes its run and
//! drops. Every produced value must arrive exactly once, counted and
//! checksummed, with each sender's FIFO intact; on `channel::spsc`, whose
//! one ring carries every element, each sender's run must also arrive
//! whole, never interleaved with another's.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;
use wcq::channel::{self, Receiver, Sender};
use wcq::sync::{block_on, SendError};

fn oversubscribed(n: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores * 4).max(n)
}

/// Sends `v` on one of the three parking forms, picked by the sender's
/// index `t`.
fn send_parking(tx: &mut Sender<u64>, t: u64, v: u64) {
    match t % 3 {
        0 => tx.send(v).unwrap(),
        1 => {
            let mut v = v;
            // BOUND: wait-edge — a seatless sender's deadline rounds end
            // once a holder's drop hands it the seat
            loop {
                match tx.send_timeout(v, Duration::from_millis(2)) {
                    Ok(()) => break,
                    Err(SendError::Timeout(back)) => v = back,
                    Err(e) => panic!("receiver alive, got {e:?}"),
                }
            }
        }
        _ => block_on(tx.send_async(v)).unwrap(),
    }
}

/// One stress run: `senders` clones of `tx`, started together, each
/// sending `per` tagged values and then dropping. Returns after asserting
/// exact delivery and per-sender FIFO; with `whole_runs`, also that each
/// sender's values arrived as one unbroken run.
fn handover_run((tx, mut rx): (Sender<u64>, Receiver<u64>), per: u64, whole_runs: bool) {
    let senders = oversubscribed(8) as u64;
    let total = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = (0..senders)
        .map(|t| {
            let total = Arc::clone(&total);
            let checksum = Arc::clone(&checksum);
            let mut tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..per {
                    let v = t << 32 | i;
                    send_parking(&mut tx, t, v);
                    total.fetch_add(1, Relaxed);
                    checksum.fetch_add(v, Relaxed);
                }
                // `tx` drops here: its seat, if it held one, passes on.
            })
        })
        .collect();
    drop(tx);

    let mut got = 0u64;
    let mut sum = 0u64;
    let mut last_per_lane = vec![None::<u64>; senders as usize];
    let mut run: Option<(usize, u64)> = None;
    while let Ok(v) = rx.recv() {
        got += 1;
        sum = sum.wrapping_add(v);
        let lane = (v >> 32) as usize;
        let seq = v & 0xffff_ffff;
        if let Some(prev) = last_per_lane[lane] {
            assert!(seq > prev, "lane {lane} reordered: {seq} after {prev}");
        }
        last_per_lane[lane] = Some(seq);
        if whole_runs {
            match run {
                Some((l, s)) if l == lane => assert_eq!(seq, s + 1, "lane {lane} broke"),
                Some((l, s)) => {
                    assert_eq!(s, per - 1, "lane {l} cut off at {s} by lane {lane}");
                    assert_eq!(seq, 0, "lane {lane} started mid-run");
                }
                None => assert_eq!(seq, 0),
            }
            run = Some((lane, seq));
        }
    }

    for p in producers {
        p.join().unwrap();
    }
    assert_eq!(got, total.load(Relaxed), "element count across hand-overs");
    assert_eq!(
        sum,
        checksum.load(Relaxed),
        "element identity across hand-overs"
    );
    assert_eq!(got, senders * per);
}

#[test]
fn seat_handover_stress_exact_delivery_3x() {
    for run in 0..3 {
        handover_run(channel::spsc(10, 1), 2_000, true);
        eprintln!("seat hand-over stress run {run}: exact delivery");
    }
}

#[test]
fn seat_handover_stress_mpsc_two_seats() {
    handover_run(channel::mpsc(6, 2, 1), 1_000, false);
}
