//! Minimized-schedule regressions: every defect the explorer has found
//! gets its failing decision tape checked in here, replayed verbatim so
//! the bug's exact interleaving stays covered forever (reverting the fix
//! makes the replay panic). Tapes come straight from the explorer's
//! failure report (`minimized schedule: "..."`).

/// Degraded-mode residue loss (DESIGN.md §11), found by the explorer on
/// `dst_degraded_residue_inheritance`'s default run (seed `0x5eedcafe`)
/// and minimized to 3 runs: the seat holder takes one value off the
/// closed channel, the excess receiver is scheduled before the holder's
/// drop, maps "closed + nothing reachable" to `Closed`, and the ring
/// residue is never delivered (`[1] != [1, 2]`). Fixed by `residue_hint`
/// — today the seat arm of the dequeue probe's miss path (`Dequeue::miss`
/// in `channel.rs`), which maps "closed, no consumer seat" to `Wait`;
/// deleting that arm makes this replay panic again.
///
/// Tapes are positional — one decision per scheduling point — so a tape
/// is only evidence for the atomics the model executed when it was cut.
/// This one was re-cut when the five wait loops became one round (the old
/// `"0*26,1*9,0*5"` replayed green even with the residue arm deleted):
/// schedule #4 of the default run with that arm removed. Any change to
/// the operations a replayed model performs owes the same re-validation
/// (last re-checked when the spine graft left the topology sweep: with
/// the arm deleted, the default run still fails at schedule #4 on this
/// same tape).
#[test]
fn degraded_residue_minimized_schedule() {
    shuttle_lite::replay("0*20,1*8,0*6", super::degraded_residue_model);
}

/// The slot-handoff ordering downgrade (`SeqCst` → `Acquire`/`Release` in
/// `wcq`'s `SlotTable::claim`/`release`, argued there), revert-
/// verified both ways under the weak memory model:
///
/// * the wrong-by-construction variant (release store `Relaxed`, one
///   notch below what the queue uses) races on the handed-off record
///   state under the **empty** tape — the explorer minimized the failing
///   schedule to all-default decisions, so no interleaving trickery is
///   needed, only the missing release edge;
/// * the downgraded orderings survive the same schedule.
///
/// If the weak engine ever stops flagging the first half, the downgrade's
/// evidence is void and this pins the exact reproducer.
#[test]
fn slot_downgrade_minimized_schedule() {
    use shuttle_lite::atomic::Ordering;
    let wrong = std::panic::catch_unwind(|| {
        shuttle_lite::Explorer::new("slot-downgrade-wrong")
            .weak(true)
            .replay("", || {
                super::slot_downgrade_model(Ordering::Relaxed, Ordering::Acquire)
            });
    });
    assert!(
        wrong.is_err(),
        "relaxed slot release must race on the pinned schedule"
    );
    // The queue's actual orderings pass the identical schedule.
    shuttle_lite::Explorer::new("slot-downgrade")
        .weak(true)
        .replay("", || {
            super::slot_downgrade_model(Ordering::Release, Ordering::Acquire)
        });
}
