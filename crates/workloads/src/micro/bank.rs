//! Bank transfers with consistent audits — the registry-extensibility
//! workload (not a paper figure; it exercises the same Sec. IV machinery
//! as `refcount` under an OLTP-shaped mix).
//!
//! Threads move money between accounts in short transactions: the debit
//! is the paper's *bounded* decrement (it only commutes while the
//! balance covers the amount, falling back to gather and then a plain
//! reducing read), the credit an unconditional ADD. Audit transactions
//! read every balance with plain loads — each one forces the directory
//! to reduce all outstanding U-state partial values — and must observe
//! the conserved grand total, which makes audits a direct mechanical
//! check of ADD-commutativity under both schemes.
//!
//! The operation mix is a **string-valued** parameter (`mix`): named
//! mixes rather than numeric knobs, which is what forced typed workload
//! parameters through the stack.

use commtm::prelude::*;

use crate::claims::{Claim, ClaimCtx, Inputs};
use crate::ds::emit_barrier;
use crate::workload::{RunOutcome, Workload, WorkloadKind};
use crate::{BaseCfg, ParamSchema, Params};

/// The named operation mixes `bank` accepts for its `mix` parameter.
const MIXES: &[&str] = &["transfer-heavy", "mixed", "audit-heavy"];

/// Operation mix: how often an operation is an audit instead of a
/// transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mix {
    /// 1% audits: transfers dominate, audits are rare consistency probes.
    TransferHeavy,
    /// 20% audits: the balanced default.
    Mixed,
    /// 50% audits: reduction-heavy, the stress case for U-state churn.
    AuditHeavy,
}

impl Mix {
    /// Every mix, in [`MIXES`] order (a conformance test pins the two
    /// lists together, so the schema's choices and the parser cannot
    /// drift apart).
    const ALL: [Mix; 3] = [Mix::TransferHeavy, Mix::Mixed, Mix::AuditHeavy];

    /// The mix's `mix`-parameter spelling.
    fn name(self) -> &'static str {
        match self {
            Mix::TransferHeavy => "transfer-heavy",
            Mix::Mixed => "mixed",
            Mix::AuditHeavy => "audit-heavy",
        }
    }

    /// Parses a mix name (the `mix` parameter's accepted values).
    ///
    /// # Errors
    ///
    /// Returns the accepted-name list for anything else.
    fn parse(name: &str) -> Result<Mix, String> {
        Mix::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| {
                format!(
                    "unknown bank mix {name:?} (expected one of: {})",
                    MIXES.join(", ")
                )
            })
    }

    /// Percent of operations that are audits.
    fn audit_pct(self) -> u64 {
        match self {
            Mix::TransferHeavy => 1,
            Mix::Mixed => 20,
            Mix::AuditHeavy => 50,
        }
    }
}

/// Per-thread tallies for the conservation oracle.
#[derive(Clone, Default)]
struct Tally {
    /// Net committed balance change per account (credits - debits).
    net: Vec<i64>,
    transfers: u64,
    /// Transfers skipped because the source balance was short.
    skipped: u64,
    audits: u64,
    /// Audits whose observed grand total differed from the conserved one.
    bad_audits: u64,
}

const R_I: usize = 0;
const R_AUDIT: usize = 1;
const R_SRC: usize = 2;
const R_DST: usize = 3;
const R_AMT: usize = 4;
const R_ACCT: usize = 5;
const R_BAR: usize = 6; // and R_BAR + 1, barrier scratch

/// What the oracle needs from the simulation setup.
struct Aux {
    accounts: Vec<Addr>,
}

/// The registered bank workload.
pub struct Bank;

impl Workload for Bank {
    fn name(&self) -> &'static str {
        "bank"
    }

    fn kind(&self) -> WorkloadKind {
        WorkloadKind::Micro
    }

    fn summary(&self) -> &'static str {
        "account transfers with consistent audits (named mixes)"
    }

    fn commutativity_claims(&self) -> Vec<Claim> {
        let add = LabelId::new(0);
        let acct = |i: u64| Addr::new(0x1000 + 64 * i);
        let transfer = move |core: usize, src: u64, dst: u64, key: &'static str| {
            move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let amt = inp.get(key);
                ctx.txn(core, |t| {
                    // Bounded debit (Sec. IV), then a labeled credit.
                    let mut v = t.load_l(add, acct(src));
                    if v < amt {
                        v = t.gather(add, acct(src));
                    }
                    if v < amt {
                        v = t.load(acct(src));
                    }
                    if v >= amt {
                        t.store_l(add, acct(src), v - amt);
                        let w = t.load_l(add, acct(dst));
                        t.store_l(add, acct(dst), w + amt);
                    }
                });
            }
        };
        vec![
            Claim::new(
                "bank/disjoint-transfers-commute",
                "transfers between disjoint account pairs preserve every \
                 balance and the grand total in either order",
            )
            .label(labels::add())
            .input("b0", 100..=10_000)
            .input("b1", 100..=10_000)
            .input("b2", 100..=10_000)
            .input("b3", 100..=10_000)
            .input("amta", 1..=100)
            .input("amtb", 1..=100)
            .setup(move |ctx: &mut ClaimCtx, inp: &Inputs| {
                ctx.poke(acct(0), inp.get("b0"));
                ctx.poke(acct(1), inp.get("b1"));
                ctx.poke(acct(2), inp.get("b2"));
                ctx.poke(acct(3), inp.get("b3"));
            })
            .op_a(transfer(0, 0, 1, "amta"))
            .op_b(transfer(1, 2, 3, "amtb"))
            .probe(move |ctx: &mut ClaimCtx| (0..4).map(|i| ctx.read(0, acct(i))).collect()),
            Claim::new(
                "bank/credit-commutes-with-audit",
                "a labeled credit hitting an exclusive (audit-warmed) copy \
                 commutes with a remote audit read — the PR-4 E-state \
                 value-resurrection regression, staked as a claim",
            )
            .cores(3)
            .label(labels::add())
            .input("init", 0..=100_000)
            .input("amt", 1..=1_000)
            .setup(move |ctx: &mut ClaimCtx, inp: &Inputs| {
                ctx.poke(acct(0), inp.get("init"));
                // Audit pass: the sole reader takes the line in E.
                ctx.read(0, acct(0));
            })
            .op_a(move |ctx: &mut ClaimCtx, inp: &Inputs| {
                let amt = inp.get("amt");
                ctx.txn(0, |t| {
                    let v = t.load_l(add, acct(0));
                    t.store_l(add, acct(0), v.wrapping_add(amt));
                });
            })
            .op_b(move |ctx: &mut ClaimCtx, _inp: &Inputs| {
                ctx.txn(1, |t| {
                    t.load(acct(0));
                });
            })
            .probe(move |ctx: &mut ClaimCtx| vec![ctx.logical_w0(acct(0)), ctx.read(2, acct(0))]),
        ]
    }

    fn schema(&self) -> ParamSchema {
        ParamSchema::new()
            .u64_per_scale("total_ops", 8_000, "total transfer + audit operations")
            .u64("accounts", 16, "accounts, one cache line each")
            .at_least(2)
            .u64("initial_balance", 128, "starting balance per account")
            .text_choices(
                "mix",
                "mixed",
                MIXES,
                "operation mix: audit share of 1% / 20% / 50%",
            )
    }

    fn run(&self, base: BaseCfg, params: &Params) -> RunOutcome {
        let total_ops = params.u64("total_ops");
        let naccounts = params.u64("accounts");
        let initial_balance = params.u64("initial_balance");
        let mix = Mix::parse(params.text("mix")).expect("mix validated by schema choices");
        let mut b = base.builder();
        let add = b.register_label(labels::add()).expect("label budget");
        let mut m = b.build();

        // One balance per account, each on its own line (no false sharing
        // under the baseline). Balances start at zero and are *seeded by
        // the programs* below, so under CommTM every thread begins holding
        // its own partial share of every account.
        let accounts: Vec<Addr> = (0..naccounts)
            .map(|_| m.heap_mut().alloc_lines(1))
            .collect();
        let barrier = m.heap_mut().alloc_lines(1);
        let expected_total = initial_balance * naccounts;
        let audit_pct = mix.audit_pct();
        let threads = base.threads;

        for t in 0..threads {
            let iters = base.share(total_ops, t);
            let accounts = accounts.clone();
            let mut p = Program::builder();
            // Seeding phase: each thread credits its share of every
            // account's initial balance with labeled ADDs — the deposits
            // land in *its* partial values, the same way refcount starts
            // every thread with `initial_refs` of its own (a central poke
            // would hand the whole balance to whichever core touched the
            // line first, and every other thread's debits would gather
            // from the start).
            let my_share = base.share(initial_balance, t);
            if my_share > 0 {
                let accounts_seed = accounts.clone();
                let seed_top = p.here();
                p.tx(move |c| {
                    let a = accounts_seed[c.reg(R_ACCT) as usize];
                    let v = c.load_l(add, a);
                    c.store_l(add, a, v + my_share);
                });
                p.ctl(move |c| {
                    c.regs[R_ACCT] += 1;
                    if c.regs[R_ACCT] < naccounts {
                        Ctl::Jump(seed_top)
                    } else {
                        Ctl::Next
                    }
                });
            }
            // Audits must only ever observe the fully-seeded total.
            emit_barrier(&mut p, barrier, threads as u64, R_BAR);
            if iters > 0 {
                let top = p.here();
                // Choose the operation: audit or a (src, dst, amount)
                // triple.
                p.ctl(move |c| {
                    c.regs[R_AUDIT] = u64::from(c.rand_below(100) < audit_pct);
                    let src = c.rand_below(naccounts);
                    c.regs[R_SRC] = src;
                    c.regs[R_DST] = (src + 1 + c.rand_below(naccounts - 1)) % naccounts;
                    c.regs[R_AMT] = 1 + c.rand_below(3);
                    Ctl::Next
                });
                let accounts_tx = accounts.clone();
                p.tx(move |c| {
                    if c.reg(R_AUDIT) == 1 {
                        // Audit: a plain read of every balance reduces all
                        // U-state partials; the snapshot must be conserved.
                        let mut sum = 0u64;
                        for &a in &accounts_tx {
                            sum += c.load(a);
                        }
                        c.work(4 * accounts_tx.len() as u64);
                        c.defer(move |s: &mut Tally| {
                            s.audits += 1;
                            s.bad_audits += u64::from(sum != expected_total);
                        });
                    } else {
                        let src = c.reg(R_SRC) as usize;
                        let dst = c.reg(R_DST) as usize;
                        let amt = c.reg(R_AMT);
                        // Debit: the paper's bounded decrement (Sec. IV) —
                        // commutes while the local partial covers the
                        // amount, then gathers from other partials, then
                        // falls back to a plain reducing read. A transfer
                        // whose source truly cannot cover the amount is
                        // *declined* (counted, and part of the oracle's
                        // arithmetic).
                        let mut v = c.load_l(add, accounts_tx[src]);
                        if v < amt {
                            v = c.load_gather(add, accounts_tx[src]);
                        }
                        if v < amt {
                            v = c.load(accounts_tx[src]);
                        }
                        if v < amt {
                            c.defer(|s: &mut Tally| s.skipped += 1);
                        } else {
                            c.store_l(add, accounts_tx[src], v - amt);
                            // Credit: increments always commute.
                            let w = c.load_l(add, accounts_tx[dst]);
                            c.store_l(add, accounts_tx[dst], w + amt);
                            c.defer(move |s: &mut Tally| {
                                s.transfers += 1;
                                s.net[src] -= amt as i64;
                                s.net[dst] += amt as i64;
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
                Tally {
                    net: vec![0; naccounts as usize],
                    ..Tally::default()
                },
            );
        }

        let report = m.run().expect("simulation");
        RunOutcome {
            machine: m,
            report,
            aux: Box::new(Aux { accounts }),
        }
    }

    /// The oracle: every balance equals its initial value plus the
    /// committed net transfers against it, the grand total is conserved,
    /// every audit observed the conserved total, and every operation is
    /// accounted for.
    fn oracle(&self, base: &BaseCfg, params: &Params, out: &mut RunOutcome) {
        let total_ops = params.u64("total_ops");
        let initial_balance = params.u64("initial_balance");
        let accounts = out
            .aux
            .downcast_ref::<Aux>()
            .expect("bank aux")
            .accounts
            .clone();
        let m = &mut out.machine;
        let threads = base.threads;

        let mut total = 0u64;
        for (i, &a) in accounts.iter().enumerate() {
            let net: i64 = (0..threads).map(|t| m.env(t).user::<Tally>().net[i]).sum();
            let want = initial_balance as i64 + net;
            let got = m.read_word(a);
            assert_eq!(
                got as i64, want,
                "account {i}: balance must equal initial + committed net transfers"
            );
            total += got;
        }
        assert_eq!(
            total,
            initial_balance * accounts.len() as u64,
            "grand total must be conserved"
        );
        let mut ops = 0u64;
        let mut bad_audits = 0u64;
        for t in 0..threads {
            let s = m.env(t).user::<Tally>();
            ops += s.transfers + s.skipped + s.audits;
            bad_audits += s.bad_audits;
        }
        assert_eq!(ops, total_ops, "every operation committed exactly once");
        assert_eq!(
            bad_audits, 0,
            "every audit must observe the conserved grand total"
        );
        m.check_invariants().expect("coherence invariants");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamValue;
    use commtm::Scheme;

    /// Runs and oracle-checks `total_ops` operations of `mix` over
    /// `accounts` accounts on `threads` cores.
    fn run(threads: usize, scheme: Scheme, total_ops: u64, mix: Mix, accounts: u64) -> RunReport {
        let over = Params::from_iter([
            ("total_ops", ParamValue::U64(total_ops)),
            ("mix", ParamValue::from(mix.name())),
            ("accounts", ParamValue::U64(accounts)),
        ]);
        let params = Bank
            .schema()
            .resolve(1, threads, &over)
            .expect("overrides fit the schema");
        Bank.run_checked(BaseCfg::new(threads, scheme), &params).0
    }

    #[test]
    fn balances_conserve_under_both_schemes_and_all_mixes() {
        for scheme in [Scheme::Baseline, Scheme::CommTm] {
            for mix in Mix::ALL {
                run(4, scheme, 200, mix, 16);
            }
        }
    }

    #[test]
    fn audits_fire_and_stay_consistent() {
        let r = run(8, Scheme::CommTm, 400, Mix::AuditHeavy, 4);
        assert!(r.commits() >= 400);
    }

    #[test]
    fn single_thread_each_mix() {
        for mix in Mix::ALL {
            run(1, Scheme::CommTm, 80, mix, 16);
        }
    }

    #[test]
    fn mix_names_roundtrip() {
        // The schema's declared choices and the parser are one list: a
        // mix added to either without the other fails here, not as a
        // mid-sweep panic after validation accepted the name.
        assert_eq!(MIXES, Mix::ALL.map(Mix::name));
        for &name in MIXES {
            assert_eq!(Mix::parse(name).unwrap().name(), name);
        }
        let err = Mix::parse("heavy").unwrap_err();
        assert!(err.contains("transfer-heavy"), "{err}");
    }

    #[test]
    fn commtm_beats_baseline_on_transfer_heavy() {
        let base = run(8, Scheme::Baseline, 400, Mix::TransferHeavy, 16);
        let comm = run(8, Scheme::CommTm, 400, Mix::TransferHeavy, 16);
        assert!(
            comm.total_cycles < base.total_cycles,
            "CommTM should win on commutative transfers ({} vs {})",
            comm.total_cycles,
            base.total_cycles
        );
    }
}
