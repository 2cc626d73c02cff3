//! Parallel multi-replica annealing.
//!
//! `K` independent replicas of the same problem anneal concurrently, each
//! on its own thread with its own RNG stream (derived from the base seed
//! by [`replica_seed`]), periodically pausing at a temperature boundary to
//! exchange layouts: every replica publishes its current cost, the
//! cheapest replica publishes its layout snapshot, and every strictly
//! worse replica adopts it before continuing its own stochastic walk.
//! This is the classic "parallel moves, serial exchange" recipe: replicas
//! explore independently between exchanges, so wall-clock scales with
//! thread count, while the exchange keeps the population anchored to the
//! best basin found so far.
//!
//! The run is **deterministic in `(seed, K)`**: every replica's trajectory
//! is a pure function of its derived seed and the snapshots it adopts, and
//! adoption decisions depend only on the deterministic per-replica costs —
//! thread scheduling cannot reorder them because exchanges happen at a
//! [`Barrier`]. A single-replica run (`K = 1`) never adopts, so it is
//! bit-identical to the sequential [`Annealer`] driven with the same
//! configuration.
//!
//! A run can also stop early: a caller-supplied predicate is evaluated by
//! one replica at every exchange boundary, and all replicas read that one
//! decision, so they stop together at the same boundary.
//!
//! Problems never cross threads — each replica is built *inside* its
//! thread by the caller's factory — so the problem type itself does not
//! need to be [`Send`]; only its plain-data layout snapshot does.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};

use rowfpga_obs::{Event, EventMeta, MetricsRegistry, Obs, PhaseProfiler, ReplaySink};

use crate::{AnnealConfig, AnnealOutcome, AnnealProblem, Annealer};

/// An annealing problem that can participate in multi-replica exchange:
/// its complete layout state can be exported as plain data and adopted by
/// another replica of the same problem.
pub trait ReplicaProblem: AnnealProblem {
    /// Plain-data export of the layout state (crosses threads).
    type Snapshot: Send;

    /// Exports the current layout state.
    fn snapshot(&self) -> Self::Snapshot;

    /// Replaces this replica's layout state with `snapshot` (taken from a
    /// replica of the *same* problem, so it always reconstructs).
    fn adopt(&mut self, snapshot: &Self::Snapshot);
}

/// Configuration of the exchange cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Temperatures each replica runs between exchanges (minimum 1).
    pub exchange_every: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { exchange_every: 4 }
    }
}

/// The RNG seed of replica `r` for base seed `base`: replica 0 keeps the
/// base seed (so `K = 1` reproduces the sequential run bit-for-bit), and
/// later replicas decorrelate by a golden-ratio stride.
pub fn replica_seed(base: u64, replica: usize) -> u64 {
    base.wrapping_add((replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One replica's share of a parallel run.
#[derive(Clone, Debug)]
pub struct ReplicaReport {
    /// The replica's own annealing outcome (its history reflects its own
    /// walk; adopted layouts enter silently between temperatures).
    pub outcome: AnnealOutcome,
    /// How many exchanges ended with this replica adopting another's
    /// layout.
    pub adoptions: usize,
}

/// Result of a parallel multi-replica run.
#[derive(Clone, Debug)]
pub struct ParallelOutcome<S> {
    /// Index of the replica whose final cost was lowest (ties break to the
    /// lowest index).
    pub best_replica: usize,
    /// The best replica's final layout snapshot.
    pub best: S,
    /// The best replica's final cost.
    pub best_cost: f64,
    /// Exchange rounds performed.
    pub exchanges: usize,
    /// Per-replica outcomes, indexed by replica.
    pub replicas: Vec<ReplicaReport>,
}

/// What each replica publishes at an exchange boundary.
#[derive(Clone, Copy)]
struct Published {
    cost: f64,
    finished: bool,
    temps: usize,
}

/// What a replica thread hands back when it joins: its outcome, adoption
/// count, final cost, final snapshot, and exchange rounds participated in.
type ReplicaRun<S> = (AnnealOutcome, usize, f64, S, usize);

/// One replica's journal batch, keyed for the deterministic merge:
/// `(round, replica, events)`. The final post-loop drain uses
/// `round = u64::MAX` so it sorts after every exchange round.
type JournalBatch = (u64, usize, Vec<(Event, EventMeta)>);

/// Runs `replicas` annealing replicas of the problem `factory` builds,
/// exchanging best layouts every [`ParallelConfig::exchange_every`]
/// temperatures. `factory(r)` is called once, inside replica `r`'s thread,
/// and must build replica `r`'s starting state; replica `r` anneals with
/// seed [`replica_seed`]`(config.seed, r)`.
///
/// Deterministic in `(config, replicas)`; `replicas == 1` is
/// bit-identical to the sequential [`Annealer`].
///
/// # Panics
///
/// Panics if `replicas == 0` or a replica thread panics (the panic is
/// propagated).
pub fn anneal_parallel<P, F>(
    factory: F,
    replicas: usize,
    config: &AnnealConfig,
    par: &ParallelConfig,
) -> ParallelOutcome<P::Snapshot>
where
    P: ReplicaProblem,
    F: Fn(usize) -> P + Sync,
{
    anneal_parallel_observed(factory, replicas, config, par, &Obs::disabled(), |_| false)
}

/// [`anneal_parallel`] with per-replica observability.
///
/// With an enabled `obs`, each replica thread records into its own buffered
/// session — events stamped with replica id `r + 1` and span ids
/// namespaced by `(r + 1) << 32` — and the batches are drained at every
/// exchange barrier, then merged into the caller's journal in
/// `(round, replica)` order after the threads join. One `exchange` event
/// is emitted per round, and every replica's metrics and phase totals are
/// absorbed into the caller's registry, so the merged journal and final
/// report are pure functions of `(config, replicas)` apart from wall-clock
/// durations.
///
/// `stop(temps)` is asked once per exchange round, after every replica
/// has published its cost and before any adopts a layout; `temps`
/// is the most temperatures any replica has completed. It is not asked
/// once every replica's schedule has finished. When it returns `true`,
/// every replica stops at that boundary without adopting, and the outcome
/// describes the layouts reached there. A deterministic predicate keeps
/// the run deterministic in `(config, replicas)`.
pub fn anneal_parallel_observed<P, F, S>(
    factory: F,
    replicas: usize,
    config: &AnnealConfig,
    par: &ParallelConfig,
    obs: &Obs,
    stop: S,
) -> ParallelOutcome<P::Snapshot>
where
    P: ReplicaProblem,
    F: Fn(usize) -> P + Sync,
    S: Fn(usize) -> bool + Sync,
{
    assert!(replicas > 0, "at least one replica");
    let exchange_every = par.exchange_every.max(1);

    /// A poisoned mutex means a replica thread panicked; that panic is
    /// re-raised at join, so the journal/metrics state behind the lock is
    /// still safe to read here.
    fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    let record = obs.enabled();
    let barrier = Barrier::new(replicas);
    let published = Mutex::new(vec![
        Published {
            cost: f64::INFINITY,
            finished: false,
            temps: 0,
        };
        replicas
    ]);
    // Replica 0's stop decision for the current round, read by every
    // replica after the barrier that follows it.
    let halt = AtomicBool::new(false);
    let best_slot: Mutex<Option<P::Snapshot>> = Mutex::new(None);
    // Journal batches drained at exchange barriers, exchange summaries
    // (computed once per round by replica 0), and each replica's final
    // metrics/profiler, all shipped back for the deterministic merge.
    let journal_batches: Mutex<Vec<JournalBatch>> = Mutex::new(Vec::new());
    let exchange_log: Mutex<Vec<(usize, usize, f64, usize)>> = Mutex::new(Vec::new());
    let replica_metrics: Mutex<Vec<(usize, MetricsRegistry, PhaseProfiler)>> =
        Mutex::new(Vec::new());

    let results: Vec<ReplicaRun<P::Snapshot>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(replicas);
        for r in 0..replicas {
            let factory = &factory;
            let barrier = &barrier;
            let published = &published;
            let best_slot = &best_slot;
            let halt = &halt;
            let stop = &stop;
            let journal_batches = &journal_batches;
            let exchange_log = &exchange_log;
            let replica_metrics = &replica_metrics;
            handles.push(scope.spawn(move || {
                // The session layer is Rc-based and must be built inside
                // the thread; the ReplaySink handle lets this thread drain
                // its own buffer at each barrier.
                let (obs, buffer) = if record {
                    let buffer = ReplaySink::new();
                    (
                        Obs::for_replica(r as u32 + 1, Box::new(buffer.clone())),
                        Some(buffer),
                    )
                } else {
                    (Obs::disabled(), None)
                };
                let cfg = AnnealConfig {
                    seed: replica_seed(config.seed, r),
                    ..config.clone()
                };
                let mut problem = factory(r);
                let mut engine = Annealer::start(&mut problem, &cfg, &obs);
                let mut adoptions = 0usize;
                let mut rounds = 0usize;
                loop {
                    for _ in 0..exchange_every {
                        if engine.step(&mut problem, &obs).is_none() {
                            break;
                        }
                    }
                    let my_cost = problem.cost();
                    lock_ignoring_poison(published)[r] = Published {
                        cost: my_cost,
                        finished: engine.finished(),
                        temps: engine.temperatures_completed(),
                    };
                    barrier.wait();
                    // Every replica derives the same winner from the same
                    // published costs.
                    let (winner, winner_cost, all_finished) = {
                        let pubs = lock_ignoring_poison(published);
                        let (w, winner_cost) =
                            cheapest(pubs.iter().map(|p| p.cost)).unwrap_or((0, f64::INFINITY));
                        let all_finished = pubs.iter().all(|p| p.finished);
                        let halting = r == 0
                            && !all_finished
                            && stop(pubs.iter().map(|p| p.temps).max().unwrap_or(0));
                        if halting {
                            halt.store(true, Ordering::SeqCst);
                        }
                        if r == 0 && record {
                            // Adoption is a pure function of the published
                            // costs and the stop decision, so one replica
                            // can log the round for everyone.
                            let adopted = pubs
                                .iter()
                                .enumerate()
                                .filter(|&(i, p)| {
                                    !halting
                                        && i != w
                                        && !p.finished
                                        && p.cost.total_cmp(&winner_cost).is_gt()
                                })
                                .count();
                            lock_ignoring_poison(exchange_log).push((
                                rounds,
                                w,
                                winner_cost,
                                adopted,
                            ));
                        }
                        (w, winner_cost, all_finished)
                    };
                    if r == winner {
                        *lock_ignoring_poison(best_slot) = Some(problem.snapshot());
                    }
                    barrier.wait();
                    let halted = halt.load(Ordering::SeqCst);
                    if !halted
                        && r != winner
                        && !engine.finished()
                        && my_cost.total_cmp(&winner_cost).is_gt()
                    {
                        // The winner published its snapshot before the
                        // barrier above.
                        if let Some(snapshot) = lock_ignoring_poison(best_slot).as_ref() {
                            problem.adopt(snapshot);
                            adoptions += 1;
                        }
                    }
                    if let Some(buffer) = &buffer {
                        let batch = buffer.drain();
                        if !batch.is_empty() {
                            lock_ignoring_poison(journal_batches).push((rounds as u64, r, batch));
                        }
                    }
                    rounds += 1;
                    // Hold every replica until adoptions are done, so the
                    // winner cannot overwrite the slot next round while a
                    // loser still reads it.
                    barrier.wait();
                    if all_finished || halted {
                        break;
                    }
                }
                let outcome = engine.outcome(&problem);
                let final_cost = outcome.final_cost;
                if let Some(buffer) = &buffer {
                    let tail = buffer.drain();
                    if !tail.is_empty() {
                        lock_ignoring_poison(journal_batches).push((u64::MAX, r, tail));
                    }
                    obs.with_session(|s| {
                        lock_ignoring_poison(replica_metrics).push((
                            r,
                            std::mem::take(&mut s.metrics),
                            std::mem::take(&mut s.profiler),
                        ));
                    });
                }
                (outcome, adoptions, final_cost, problem.snapshot(), rounds)
            }));
        }
        handles
            .into_iter()
            .map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });

    if record {
        // Deterministic merge: batches ordered by (round, replica), with
        // each round's exchange summary emitted after the round's events.
        // Sequence numbers are re-stamped by the caller's session; span
        // ids and replica attribution survive verbatim.
        let mut batches = journal_batches
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        batches.sort_by_key(|&(round, replica, _)| (round, replica));
        let mut exchange_rounds = exchange_log
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        exchange_rounds.sort_unstable_by_key(|&(round, ..)| round);
        let mut exchange_iter = exchange_rounds.into_iter().peekable();
        obs.with_session(|s| {
            let mut last_round: Option<u64> = None;
            for (round, _, batch) in &batches {
                if let Some(done) = last_round.filter(|&done| done != *round) {
                    while let Some(&(er, winner, cost, adopted)) = exchange_iter.peek() {
                        if er as u64 > done {
                            break;
                        }
                        exchange_iter.next();
                        s.emit(&Event::Exchange {
                            round: er,
                            winner,
                            winner_cost: cost,
                            adopted,
                        });
                    }
                }
                last_round = Some(*round);
                for (event, meta) in batch {
                    s.emit_replayed(event, meta);
                }
            }
            for (round, winner, cost, adopted) in exchange_iter {
                s.emit(&Event::Exchange {
                    round,
                    winner,
                    winner_cost: cost,
                    adopted,
                });
            }
        });
        let mut merged = replica_metrics
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        merged.sort_by_key(|&(r, ..)| r);
        obs.with_session(|s| {
            for (_, metrics, profiler) in &merged {
                s.metrics.absorb(metrics);
                s.profiler.absorb(profiler);
            }
        });
    }

    let (best_replica, best_cost) =
        cheapest(results.iter().map(|run| run.2)).unwrap_or((0, f64::INFINITY));
    let exchanges = results.last().map_or(0, |run| run.4);
    let (reports, mut snapshots): (Vec<_>, Vec<_>) = results
        .into_iter()
        .map(|(outcome, adoptions, _, snapshot, _)| {
            (ReplicaReport { outcome, adoptions }, snapshot)
        })
        .unzip();
    ParallelOutcome {
        best_replica,
        best: snapshots.swap_remove(best_replica),
        best_cost,
        exchanges,
        replicas: reports,
    }
}

/// The index and value of the lowest cost under [`f64::total_cmp`], ties
/// breaking to the lowest index; `None` when there are no costs.
fn cheapest(costs: impl Iterator<Item = f64>) -> Option<(usize, f64)> {
    costs.enumerate().reduce(|best, next| {
        if next.1.total_cmp(&best.1).is_lt() {
            next
        } else {
            best
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::anneal;

    /// Toy replica problem: minimize squared distance from a target vector,
    /// with the vector itself as the exchanged snapshot.
    struct Toy {
        x: Vec<i64>,
        target: Vec<i64>,
    }

    impl Toy {
        fn new(n: usize) -> Toy {
            Toy {
                x: vec![0; n],
                target: (0..n as i64).collect(),
            }
        }
        fn cost_of(&self) -> f64 {
            self.x
                .iter()
                .zip(&self.target)
                .map(|(a, b)| ((a - b) * (a - b)) as f64)
                .sum()
        }
    }

    impl AnnealProblem for Toy {
        type Applied = (usize, i64);

        fn propose_and_apply(&mut self, rng: &mut StdRng) -> (Self::Applied, f64) {
            let i = rng.gen_range(0..self.x.len());
            let step = if rng.gen_bool(0.5) { 1 } else { -1 };
            let before = self.cost_of();
            self.x[i] += step;
            ((i, step), self.cost_of() - before)
        }

        fn undo(&mut self, (i, step): Self::Applied) {
            self.x[i] -= step;
        }

        fn commit(&mut self, _applied: Self::Applied) {}

        fn cost(&self) -> f64 {
            self.cost_of()
        }
    }

    impl ReplicaProblem for Toy {
        type Snapshot = Vec<i64>;

        fn snapshot(&self) -> Vec<i64> {
            self.x.clone()
        }

        fn adopt(&mut self, snapshot: &Vec<i64>) {
            self.x.clone_from(snapshot);
        }
    }

    fn cfg(seed: u64) -> AnnealConfig {
        AnnealConfig {
            seed,
            max_temps: 20,
            ..AnnealConfig::fast()
        }
    }

    fn run(seed: u64, k: usize) -> ParallelOutcome<Vec<i64>> {
        anneal_parallel(|_| Toy::new(8), k, &cfg(seed), &ParallelConfig::default())
    }

    #[test]
    fn single_replica_is_bit_identical_to_the_sequential_engine() {
        let mut seq = Toy::new(8);
        let sequential = anneal(&mut seq, &cfg(11), |_| {});
        let par = run(11, 1);
        assert_eq!(par.best_replica, 0);
        assert_eq!(par.replicas[0].adoptions, 0);
        assert_eq!(par.best, seq.x);
        assert_eq!(par.best_cost, sequential.final_cost);
        let rep = &par.replicas[0].outcome;
        assert_eq!(rep.total_moves, sequential.total_moves);
        assert_eq!(rep.history, sequential.history);
    }

    #[test]
    fn parallel_runs_are_deterministic_in_seed_and_replica_count() {
        for k in [2, 3] {
            let a = run(5, k);
            let b = run(5, k);
            assert_eq!(a.best_replica, b.best_replica);
            assert_eq!(a.best, b.best);
            assert_eq!(a.best_cost, b.best_cost);
            assert_eq!(a.exchanges, b.exchanges);
            for (x, y) in a.replicas.iter().zip(&b.replicas) {
                assert_eq!(x.adoptions, y.adoptions);
                assert_eq!(x.outcome.total_moves, y.outcome.total_moves);
                assert_eq!(x.outcome.final_cost, y.outcome.final_cost);
                assert_eq!(x.outcome.history, y.outcome.history);
            }
        }
    }

    #[test]
    fn replicas_use_distinct_rng_streams() {
        let out = run(5, 3);
        assert_eq!(out.replicas.len(), 3);
        // Different streams explore differently: the full per-temperature
        // histories cannot all coincide.
        let h0 = &out.replicas[0].outcome.history;
        assert!(
            out.replicas[1..].iter().any(|r| r.outcome.history != *h0),
            "replica walks are identical; streams are correlated"
        );
        assert_ne!(replica_seed(5, 0), replica_seed(5, 1));
        assert_eq!(replica_seed(5, 0), 5);
    }

    #[test]
    fn exchange_spreads_the_best_layout() {
        // On a convex toy landscape every replica converges to the
        // optimum; the point here is that the exchange machinery ran and
        // the reported best matches the best replica's final state.
        let out = run(9, 3);
        assert!(out.exchanges > 0);
        let best = &out.replicas[out.best_replica].outcome;
        assert_eq!(out.best_cost, best.final_cost);
        for r in &out.replicas {
            assert!(out.best_cost <= r.outcome.final_cost);
        }
    }

    /// Journal text with wall-clock fields removed, for determinism
    /// comparisons.
    fn normalized_journal(lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .map(|line| rowfpga_obs::json::parse(line).expect("journal line parses"))
            .map(|doc| match doc {
                rowfpga_obs::Json::Obj(pairs) => rowfpga_obs::Json::Obj(
                    pairs
                        .into_iter()
                        .filter(|(k, _)| k != "elapsed_us" && k != "runtime_sec")
                        .collect(),
                )
                .to_string_compact(),
                other => other.to_string_compact(),
            })
            .collect()
    }

    #[test]
    fn observed_parallel_journals_merge_deterministically() {
        let observed_run = |seed: u64, k: usize| {
            let ring = rowfpga_obs::RingSink::new(1 << 16);
            let obs = Obs::with_sink(Box::new(ring.clone()));
            let out = obs.span("anneal", || {
                anneal_parallel_observed(
                    |_| Toy::new(8),
                    k,
                    &cfg(seed),
                    &ParallelConfig::default(),
                    &obs,
                    |_| false,
                )
            });
            (out, ring.snapshot())
        };

        let (out_a, lines_a) = observed_run(5, 3);
        let (_out_b, lines_b) = observed_run(5, 3);
        // The merged journal is a pure function of (seed, K) apart from
        // wall-clock durations.
        assert_eq!(normalized_journal(&lines_a), normalized_journal(&lines_b));

        // Recording must not perturb the search itself.
        let plain = run(5, 3);
        assert_eq!(out_a.best_replica, plain.best_replica);
        assert_eq!(out_a.best, plain.best);
        assert_eq!(out_a.best_cost, plain.best_cost);
        assert_eq!(out_a.exchanges, plain.exchanges);

        // Replica attribution, span namespacing, exchange rounds, and a
        // monotonic sequence all survive the merge.
        let docs: Vec<_> = lines_a
            .iter()
            .map(|l| rowfpga_obs::json::parse(l).unwrap())
            .collect();
        let metas: Vec<EventMeta> = docs.iter().map(EventMeta::from_json).collect();
        for (i, m) in metas.iter().enumerate() {
            assert_eq!(m.seq, i as u64 + 1, "merged seq is monotonic");
        }
        let replicas_seen: std::collections::BTreeSet<u32> =
            metas.iter().map(|m| m.replica).collect();
        assert!(
            replicas_seen.contains(&1) && replicas_seen.contains(&3),
            "replica streams attributed: {replicas_seen:?}"
        );
        for m in &metas {
            if m.replica > 0 && m.span != 0 {
                assert_eq!(m.span >> 32, u64::from(m.replica), "span namespacing");
            }
        }
        let exchange_count = docs
            .iter()
            .filter(|d| d.get("event").and_then(rowfpga_obs::Json::as_str) == Some("exchange"))
            .count();
        assert_eq!(exchange_count, out_a.exchanges);
    }

    #[test]
    fn observed_parallel_merges_replica_metrics() {
        let ring = rowfpga_obs::RingSink::new(1 << 16);
        let obs = Obs::with_sink(Box::new(ring.clone()));
        let out = anneal_parallel_observed(
            |_| Toy::new(8),
            2,
            &cfg(7),
            &ParallelConfig::default(),
            &obs,
            |_| false,
        );
        let total_moves: usize = out.replicas.iter().map(|r| r.outcome.total_moves).sum();
        let counted = obs
            .with_session(|s| {
                s.metrics.counter("anneal.moves") + s.metrics.counter("anneal.warmup_moves")
            })
            .unwrap();
        assert_eq!(counted as usize, total_moves);
        let temp_calls = obs
            .with_session(|s| s.profiler.total("anneal.temperature").map(|t| t.calls))
            .unwrap()
            .unwrap_or(0);
        assert!(temp_calls > 0, "replica phase totals absorbed");
    }

    #[test]
    fn best_replica_ties_break_to_the_lowest_index() {
        // All replicas reach cost 0 on this easy landscape.
        let out = anneal_parallel(
            |_| Toy::new(4),
            3,
            &AnnealConfig {
                seed: 3,
                ..AnnealConfig::default()
            },
            &ParallelConfig::default(),
        );
        if out
            .replicas
            .iter()
            .all(|r| r.outcome.final_cost == out.best_cost)
        {
            assert_eq!(out.best_replica, 0);
        }
    }
}
