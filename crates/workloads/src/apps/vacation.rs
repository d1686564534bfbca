//! vacation (paper Sec. VII, Table II): an OLTP-style travel reservation
//! system over car/flight/room relations. Client transactions query
//! availability and make or cancel reservations; the paper's resizable
//! reservation tables account free slots with a bounded 64-bit ADD counter
//! that benefits from gather requests (Table II; CommTM +45% at 128
//! threads).
//!
//! Transactions here mirror STAMP's shapes: mostly-read queries, and
//! updates that decrement an item's `numFree` (plain RMW, item-level
//! contention is rare across many items) plus the relation's shared
//! remaining-slot counter (the commutative hotspot, bounded-decremented
//! exactly like the paper's Sec. IV counter).

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

/// Relations in the system.
const RELATIONS: usize = 3; // cars, flights, rooms

/// Per-thread reservation book: held reservations per relation, and item
/// ids for cancellations.
#[derive(Clone, Default)]
struct Book {
    held: Vec<Vec<u64>>, // per relation: item ids reserved
    failed: u64,
}

const R_I: usize = 0;
const R_OP: usize = 1; // 0 = query, 1 = make, 2 = cancel
const R_REL: usize = 2;
const R_ITEM: usize = 3;

/// What the oracle needs from the simulation setup.
struct Aux {
    num_free: Vec<Addr>,
    slots: Vec<Addr>,
    seats_per_item: u64,
    slot_capacity: u64,
}

/// The registered vacation application (Table II).
pub struct Vacation;

impl Workload for Vacation {
    fn name(&self) -> &'static str {
        "vacation"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::App
    }

    fn summary(&self) -> &'static str {
        "travel reservations with bounded remaining-space counters"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let add = LabelId::new(0);
        let seats = Addr::new(0x1000);
        let booked = Addr::new(0x1040);
        let reserve = move |core: usize, key: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let amt = inp.get(key);
                ctx.txn(core, |t| {
                    // Bounded seat debit (gather, then plain-read
                    // fallback), mirrored by a booked-count credit.
                    let mut v = t.load_l(add, seats);
                    if v < amt {
                        v = t.gather(add, seats);
                    }
                    if v < amt {
                        v = t.load(seats);
                    }
                    if v >= amt {
                        t.store_l(add, seats, v - amt);
                        let b = t.load_l(add, booked);
                        t.store_l(add, booked, b + amt);
                    }
                });
            }
        };
        vec![Claim::new(
            "vacation/reservations-commute",
            "two reservations that both fit the free-seat pool commute: \
             seats and bookings agree (and conserve) in either order",
        )
        .label(labels::add())
        // free >= amta + amtb, so both reservations always succeed.
        .input("free", 20..=1_000)
        .input("amta", 1..=10)
        .input("amtb", 1..=10)
        .setup(move |ctx: &mut ClaimCtx, inp: &Inputs| ctx.poke(seats, inp.get("free")))
        .op_a(reserve(0, "amta"))
        .op_b(reserve(1, "amtb"))
        .probe(move |ctx: &mut ClaimCtx| {
            vec![
                ctx.logical_w0(seats),
                ctx.logical_w0(booked),
                ctx.read(0, seats),
                ctx.read(0, booked),
            ]
        })]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64_per_scale("tasks", 600, "client transactions in total")
            .u64("items", 64, "items per relation")
            .u64("query_pct", 60, "percent of read-only query transactions")
            .u64(
                "make_pct",
                90,
                "percent of updates that make (vs cancel) reservations",
            )
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let tasks = params.u64("tasks");
        let items = params.u64("items");
        let (qp, mp) = (params.u64("query_pct"), params.u64("make_pct"));
        let mut b = base.builder();
        let add = b.register_label(labels::add()).expect("label budget");
        let mut m = b.build();

        // Per relation: numFree array, price array, remaining-slot counter.
        let num_free: Vec<Addr> = (0..RELATIONS)
            .map(|_| m.heap_mut().alloc(items * 8, 64))
            .collect();
        let price: Vec<Addr> = (0..RELATIONS)
            .map(|_| m.heap_mut().alloc(items * 8, 64))
            .collect();
        let slots: Vec<Addr> = (0..RELATIONS)
            .map(|_| m.heap_mut().alloc_lines(1))
            .collect();
        let seats_per_item = 4u64;
        let slot_capacity = tasks + 64;
        for r in 0..RELATIONS {
            for i in 0..items {
                m.poke(num_free[r].offset_words(i), seats_per_item);
                m.poke(
                    price[r].offset_words(i),
                    100 + (i * 7 + r as u64 * 13) % 900,
                );
            }
            m.poke(slots[r], slot_capacity);
        }

        let threads = base.threads;
        for t in 0..threads {
            let iters = base.share(tasks, t);
            let num_free = num_free.clone();
            let price = price.clone();
            let slots = slots.clone();
            let mut p = Program::builder();
            if iters > 0 {
                let top = p.here();
                // Choose the operation and target.
                p.ctl(move |c| {
                    let rel = c.rand_below(RELATIONS as u64);
                    c.regs[R_REL] = rel;
                    c.regs[R_ITEM] = c.rand_below(items);
                    let d = c.rand_below(100);
                    let make_draw = c.rand_below(100);
                    let book = c.user::<Book>();
                    let can_cancel = !book.held[rel as usize].is_empty();
                    c.regs[R_OP] = if d < qp {
                        0
                    } else if make_draw < mp || !can_cancel {
                        1
                    } else {
                        // Cancel the oldest held reservation in this relation.
                        c.regs[R_ITEM] = book.held[rel as usize][0];
                        2
                    };
                    Ctl::Next
                });
                p.tx(move |c| {
                    let rel = c.reg(R_REL) as usize;
                    let item = c.reg(R_ITEM) % items;
                    match c.reg(R_OP) {
                        // Query: read-only scan of a few items' price and
                        // availability.
                        0 => {
                            for k in 0..4u64 {
                                let i = (item + k * 7) % items;
                                let _p = c.load(price[rel].offset_words(i));
                                let _f = c.load(num_free[rel].offset_words(i));
                            }
                            c.work(20);
                        }
                        // Make a reservation: seat decrement (plain RMW) plus
                        // the bounded remaining-slot decrement (Sec. IV).
                        1 => {
                            let fa = num_free[rel].offset_words(item);
                            let free = c.load(fa);
                            let _p = c.load(price[rel].offset_words(item));
                            c.work(16);
                            if free == 0 {
                                c.defer(move |b: &mut Book| b.failed += 1);
                            } else {
                                let mut v = c.load_l(add, slots[rel]);
                                if v == 0 {
                                    v = c.load_gather(add, slots[rel]);
                                }
                                if v == 0 {
                                    v = c.load(slots[rel]);
                                }
                                if v == 0 {
                                    c.defer(move |b: &mut Book| b.failed += 1);
                                } else {
                                    c.store(fa, free - 1);
                                    c.store_l(add, slots[rel], v - 1);
                                    c.defer(move |b: &mut Book| b.held[rel].push(item));
                                }
                            }
                        }
                        // Cancel: seat increment plus slot increment (always
                        // commutes).
                        _ => {
                            let fa = num_free[rel].offset_words(item);
                            let free = c.load(fa);
                            c.store(fa, free + 1);
                            let v = c.load_l(add, slots[rel]);
                            c.store_l(add, slots[rel], v + 1);
                            c.work(12);
                            c.defer(move |b: &mut Book| {
                                let held = &mut b.held[rel];
                                if let Some(pos) = held.iter().position(|&x| x == item) {
                                    held.remove(pos);
                                }
                            });
                        }
                    }
                });
                p.ctl(move |c| {
                    c.regs[R_I] += 1;
                    if c.regs[R_I] < iters {
                        Ctl::Jump(top)
                    } else {
                        Ctl::Done
                    }
                });
            }
            m.set_program(
                t,
                p.build(),
                Book {
                    held: vec![Vec::new(); RELATIONS],
                    failed: 0,
                },
            );
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux {
                num_free,
                slots,
                seats_per_item,
                slot_capacity,
            }),
        }
    }

    /// The conservation oracle: per relation, seats and slots must both
    /// account exactly for the reservations held across all threads.
    fn oracle(&self, base: &BaseCfg, params: &Params, out: &mut RunOutcome) {
        let aux = out.aux.downcast_ref::<Aux>().expect("vacation aux");
        let (num_free, slots) = (aux.num_free.clone(), aux.slots.clone());
        let (seats_per_item, slot_capacity) = (aux.seats_per_item, aux.slot_capacity);
        let m = &mut out.machine;
        let threads = base.threads;
        let items = params.u64("items");
        for r in 0..RELATIONS {
            let mut held_per_item = vec![0u64; items as usize];
            let mut held_total = 0u64;
            for t in 0..threads {
                for &i in &m.env(t).user::<Book>().held[r] {
                    held_per_item[i as usize] += 1;
                    held_total += 1;
                }
            }
            for i in 0..items {
                let free = m.read_word(num_free[r].offset_words(i));
                assert_eq!(
                    free + held_per_item[i as usize],
                    seats_per_item,
                    "relation {r} item {i}: seat conservation"
                );
            }
            let rem = m.read_word(slots[r]);
            assert_eq!(
                rem + held_total,
                slot_capacity,
                "relation {r}: slot conservation"
            );
        }
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commtm::Scheme;

    /// Runs and oracle-checks `tasks` client transactions, `query_pct`
    /// percent of them queries, on `threads` cores.
    fn run(threads: usize, scheme: Scheme, tasks: u64, query_pct: u64) -> RunReport {
        let over = Params::from_iter([("tasks", tasks), ("query_pct", query_pct)]);
        let params = Vacation
            .schema()
            .resolve(1, threads, &over)
            .expect("overrides fit the schema");
        Vacation
            .run_checked(BaseCfg::new(threads, scheme), &params)
            .0
    }

    #[test]
    fn reservations_conserve_under_both_schemes() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            run(4, scheme, 200, 60);
        }
    }

    #[test]
    fn single_thread_reservations() {
        run(1, Scheme::CommTm, 80, 60);
    }

    #[test]
    fn heavy_update_mix_still_conserves() {
        run(8, Scheme::CommTm, 300, 10);
    }
}
