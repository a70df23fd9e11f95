#!/usr/bin/env python3
"""CI perf gate over the bench JSON (dune exec bench/main.exe -- --json t1 t9 t10 t11 t12 t16)
and, optionally, a ppd profile JSON (--profile FILE).

Checks on the T10 (parallel replay) table:

1. Determinism — every workload's parallel runs must have produced a
   graph byte-identical to the serial (-j1) one. Enforced everywhere.
2. Speedup — the -j4 run must beat -j1 by a sanity margin (default
   1.4x; the paper-level target is ~2x). Only enforced when the host
   reports at least MIN_CORES cores: a 1- or 2-core runner physically
   cannot show the speedup, so the gate prints the numbers and skips
   the margin there instead of failing spuriously.

Checks on the T1 (engine comparison) table, when present:

A. Per-workload VM speedup floors — interp_bare_ns / vm_bare_ns must
   clear a committed per-workload floor. The floors are calibrated,
   not uniform: matmul is local-step dominated so the bytecode VM's
   full dispatch-loop advantage shows (measured 5.3-5.9x -> floor
   4.0), while sync-heavy workloads spend most of their steps in the
   shared scheduler/driver that both engines use by design (the
   single-driver architecture is what makes traces identical by
   construction), so their physically attainable ratio is bounded by
   the driver share — their floors encode "the VM never loses and
   keeps its measured edge", not 10x.
B. Logged-path sanity — vm_logged_ns must stay within
   T1_VM_LOGGED_MAX_RATIO of interp_logged_ns on every workload: the
   VM must not surrender its advantage once the trace logger is on
   (zero-copy prelog/postlog contract, DESIGN §15).
C. VM tracing overhead — on the local-dominated workload the cost of
   the logged run over event materialization alone,
   (vm_logged - vm_instr) / vm_instr, must stay under a loose bound.
   vm_instr builds every event for a no-op observer, which the logger
   alone no longer pays, so this reads negative now; the bound (50%)
   stays a tripwire for the zero-copy contract breaking (per-event
   allocation on the VM log path shows up as 2-3x).
D. Logged over bare — on the local-dominated workload,
   vm_logged_ns / vm_bare_ns - 1 must stay under T1_VM_LOG_OVH_MAX.
   The logger declines local statement events, so a logged VM run
   keeps them on the bare path: five runs on matmul-12 read -35% to
   +25% (noise around zero), against +161% to +249% when every event
   was materialized. The bound (50%) trips if the logger falls back
   to materializing local events. Neither C nor
   D is the paper's tight 15% claim — wall-clock ratios of two
   sub-100ns paths are too noisy on shared runners for a tight gate.

Checks on the T11 (observability overhead) table, when present:

3. A disabled counter operation must cost under DISABLED_OP_MAX_NS —
   the "free when off" contract of lib/obs (one atomic load). This is
   the machine-independent form of "instrumentation off stays within
   2% of the uninstrumented baseline": the absolute per-op bound holds
   on any runner, where a wall-clock ratio between two CI runs would
   be noise.
4. The obs-on run must not be absurdly slower than obs-off (> 2x means
   a hot path is doing real work when it should be gated).

Checks on the T12 (fault-injection overhead) table, when present:

5. A disarmed fault check must cost under DISABLED_OP_MAX_NS — the
   same "free when off" contract as T11, for the chaos layer that is
   compiled into every I/O and execution edge.
6. Arming a plan whose entries never match must not slow the full
   log-and-flowback pass by more than 2x.

Checks on the T16 (protocol analysis) table, when present:

7. Refinement monotonicity — on every workload the protocol-refined
   MHP must discharge at least as many conflicting pairs as the
   spawn/join baseline (discharged_proto >= discharged_base), and the
   refined count must not regress below the committed floor for that
   workload. Precision, unlike wall-clock, is deterministic, so the
   floors are exact numbers.

Checks on the T13 (serve daemon) table, when present:

8. Zero protocol errors across every session count — a daemon that
   sheds or misdispatches under the bench's load is broken, not slow.
9. Cache sharing — the shared-fragment-cache hit rate at 16
   concurrent sessions must beat the single-session run: if it does
   not, sessions are not actually sharing replayed fragments.

Checks on a serve profile JSON (--serve-profile FILE), when given:

10. Namespace coherence — every global serve.* counter must equal the
    sum of its per-session serve.s<ID>.* mirrors (the satellite
    invariant of the per-session accounting).

Checks on the profile JSON (--profile FILE), when given:

11. Counter coherence — cache hits + misses == lookups; the emulator's
   replay count >= the controller's assembled replays (speculation can
   only add); assembled replays <= lookups; at least one phase span
   of each of "execution" and "debugging" was recorded.

Usage: perf_gate.py BENCH_JSON [MARGIN] [--profile PROFILE_JSON]
                    [--serve-profile SERVE_PROFILE_JSON]
"""

import json
import sys

MIN_CORES = 4
DISABLED_OP_MAX_NS = 25.0
ON_OFF_MAX_RATIO = 2.0


def fail(msg):
    print(f"perf-gate: FAIL: {msg}")
    sys.exit(1)


def check_t10(data, margin, failures):
    rows = data.get("t10")
    if not rows:
        fail("no t10 table in the bench JSON")
    cores = int(data.get("host_cores", 0))
    enforce = cores >= MIN_CORES

    for row in rows:
        name = row["workload"]
        if not row.get("identical", False):
            failures.append(f"{name}: parallel graph differs from serial")
            continue
        runs = {r["jobs"]: r for r in row["runs"]}
        if 1 not in runs or 4 not in runs:
            failures.append(f"{name}: missing -j1/-j4 runs")
            continue
        s1 = runs[1]["seconds"]
        s4 = runs[4]["seconds"]
        speedup = s1 / s4 if s4 > 0 else float("inf")
        print(
            f"perf-gate: {name}: {row['intervals']} interval(s), "
            f"-j1 {s1:.4f}s, -j4 {s4:.4f}s "
            f"({runs[4]['domains']} domain(s)) -> {speedup:.2f}x"
        )
        if enforce and speedup < margin:
            failures.append(
                f"{name}: -j4 speedup {speedup:.2f}x below the "
                f"{margin:.2f}x margin"
            )

    if not enforce:
        print(
            f"perf-gate: host has {cores} core(s) (< {MIN_CORES}); "
            f"determinism checked, speedup margin skipped"
        )
    return len(rows)


# Committed per-workload floors for the T1 bare-execution speedup
# (interp_bare_ns / vm_bare_ns). Calibrated from bench runs on the
# committing host with roughly 25-35% headroom below the measured
# ratio; see the module docstring for why the floors differ per
# workload (local-step share vs shared-driver share).
T1_VM_SPEEDUP_FLOOR = {
    "matmul-12": 4.0,     # measured 5.3-5.9x; local-step dominated
    "branchy-150": 1.7,   # measured 2.2-3.0x
    "prodcons-300": 1.4,  # measured 1.9-2.1x; channel driver heavy
    "counter-4x50": 1.3,  # measured 1.6-1.9x; semaphore driver heavy
    "ring-6x12": 1.0,     # measured 1.1-1.4x; almost all sync steps
    "fib-15": 1.0,        # measured 1.1-1.3x; call/return driver heavy
}
T1_VM_LOGGED_MAX_RATIO = 1.05
T1_VM_TRACE_OVH_MAX = {"matmul-12": 0.5}
T1_VM_LOG_OVH_MAX = {"matmul-12": 0.5}


def check_t1_vm(data, failures):
    rows = data.get("t1")
    if not rows:
        return
    seen = set()
    for row in rows:
        name = row["workload"]
        seen.add(name)
        ib = float(row["interp_bare_ns"])
        vb = float(row["vm_bare_ns"])
        il = float(row["interp_logged_ns"])
        vi = float(row["vm_instr_ns"])
        vl = float(row["vm_logged_ns"])
        steps = int(row["steps"])
        if not (ib and vb and il and vi and vl):
            failures.append(f"t1/{name}: missing engine timings")
            continue
        speedup = ib / vb
        print(
            f"perf-gate: t1/{name}: {steps} step(s), interp "
            f"{ib / steps:.1f} ns/step, vm {vb / steps:.1f} ns/step "
            f"-> {speedup:.2f}x bare"
        )
        floor = T1_VM_SPEEDUP_FLOOR.get(name)
        if floor is not None and speedup < floor:
            failures.append(
                f"t1/{name}: vm speedup {speedup:.2f}x below the "
                f"committed {floor:.1f}x floor"
            )
        logged_ratio = vl / il
        print(
            f"perf-gate: t1/{name}: logged vm/interp = {logged_ratio:.3f}x"
        )
        if logged_ratio > T1_VM_LOGGED_MAX_RATIO:
            failures.append(
                f"t1/{name}: vm-with-logging is {logged_ratio:.2f}x the "
                f"interp-with-logging time (> {T1_VM_LOGGED_MAX_RATIO:.2f}x)"
                f" — the VM lost its advantage once the logger came on"
            )
        ovh_max = T1_VM_TRACE_OVH_MAX.get(name)
        if ovh_max is not None:
            ovh = (vl - vi) / vi
            print(f"perf-gate: t1/{name}: vm log-write overhead "
                  f"{100 * ovh:.0f}%")
            if ovh > ovh_max:
                failures.append(
                    f"t1/{name}: log writes cost {100 * ovh:.0f}% over "
                    f"event materialization (> {100 * ovh_max:.0f}%) — "
                    f"the zero-copy logging contract looks broken"
                )
        log_max = T1_VM_LOG_OVH_MAX.get(name)
        if log_max is not None:
            ovh = vl / vb - 1
            print(f"perf-gate: t1/{name}: vm logged over bare "
                  f"{100 * ovh:+.0f}%")
            if ovh > log_max:
                failures.append(
                    f"t1/{name}: the logged vm costs {100 * ovh:.0f}% over "
                    f"the bare vm (> {100 * log_max:.0f}%) — the logger "
                    f"looks to be materializing local statement events"
                )
    for name in T1_VM_SPEEDUP_FLOOR:
        if name not in seen:
            failures.append(f"t1: committed workload {name} missing "
                            f"from the bench JSON")


def check_t11(data, failures):
    t11 = data.get("t11")
    if not t11:
        return
    op = t11.get("disabled_op_ns")
    if op is None:
        failures.append("t11: no disabled_op_ns measurement")
    else:
        print(f"perf-gate: t11: disabled counter op {op:.2f} ns/call")
        if op > DISABLED_OP_MAX_NS:
            failures.append(
                f"t11: disabled counter op {op:.2f} ns exceeds the "
                f"{DISABLED_OP_MAX_NS:.0f} ns bound — instrumentation "
                f"is not free when off"
            )
    for row in t11.get("rows", []):
        name, off, on = row["workload"], row["off_ns"], row["on_ns"]
        if not off or not on:
            failures.append(f"t11/{name}: missing off/on timing")
            continue
        ratio = on / off
        print(f"perf-gate: t11/{name}: obs-on/obs-off = {ratio:.3f}x")
        if ratio > ON_OFF_MAX_RATIO:
            failures.append(
                f"t11/{name}: enabling collection costs {ratio:.2f}x "
                f"(> {ON_OFF_MAX_RATIO:.1f}x) — a hot path is doing "
                f"ungated work"
            )


def check_t12(data, failures):
    t12 = data.get("t12")
    if not t12:
        return
    op = t12.get("disabled_op_ns")
    if op is None:
        failures.append("t12: no disabled_op_ns measurement")
    else:
        print(f"perf-gate: t12: disarmed fault check {op:.2f} ns/call")
        if op > DISABLED_OP_MAX_NS:
            failures.append(
                f"t12: disarmed fault check {op:.2f} ns exceeds the "
                f"{DISABLED_OP_MAX_NS:.0f} ns bound — fault injection "
                f"is not free when off"
            )
    for row in t12.get("rows", []):
        name, off, armed = row["workload"], row["off_ns"], row["armed_ns"]
        if not off or not armed:
            failures.append(f"t12/{name}: missing off/armed timing")
            continue
        ratio = armed / off
        print(f"perf-gate: t12/{name}: armed/disarmed = {ratio:.3f}x")
        if ratio > ON_OFF_MAX_RATIO:
            failures.append(
                f"t12/{name}: an armed-but-inert plan costs {ratio:.2f}x "
                f"(> {ON_OFF_MAX_RATIO:.1f}x) — a check site is doing "
                f"ungated work"
            )


def check_t13(data, failures):
    rows = data.get("t13")
    if not rows:
        return
    by_sessions = {}
    for row in rows:
        n = int(row["sessions"])
        by_sessions[n] = row
        print(
            f"perf-gate: t13/{n} session(s): {row['requests']} request(s), "
            f"{row['errors']} error(s), p50 {row['p50_ns'] / 1e6:.2f} ms, "
            f"p99 {row['p99_ns'] / 1e6:.2f} ms, hit rate "
            f"{100 * row['hit_rate']:.0f}%, {row['shed']} shed"
        )
        if int(row["errors"]) != 0:
            failures.append(
                f"t13/{n}: {row['errors']} protocol error(s) — the bench "
                f"drives only well-formed requests, so every one must "
                f"succeed"
            )
        if int(row["requests"]) == 0:
            failures.append(f"t13/{n}: no requests completed")
    if 1 in by_sessions and 16 in by_sessions:
        lone = float(by_sessions[1]["hit_rate"])
        many = float(by_sessions[16]["hit_rate"])
        if many <= lone:
            failures.append(
                f"t13: hit rate at 16 sessions ({100 * many:.0f}%) does "
                f"not beat the single-session run ({100 * lone:.0f}%) — "
                f"sessions are not sharing the fragment cache"
            )
    else:
        failures.append("t13: missing the 1- or 16-session row")


# Order-tier byte gate (T14): on sync-heavy workloads — critical
# sections reading sizeable shared state, where the content tier's
# sync-unit snapshots dominate — the order tier must cut the log by
# an order of magnitude; 0.3x is the never-regress ceiling, the
# committed rows sit near 0.06x. Reconstruction identity must hold on
# every row (it is the correctness contract, not a perf number), and
# checkpoint seeding must actually bound the seek scan.
T14_ORDER_MAX_RATIO = 0.3


def check_t14(data, failures):
    rows = data.get("t14")
    if not rows:
        return
    for row in rows:
        name = row["workload"]
        content = int(row["content_bytes"])
        order = int(row["order_bytes"])
        ratio = order / content if content else 1.0
        print(
            f"perf-gate: t14/{name}: {content}B content, {order}B order "
            f"({ratio:.3f}x), {row['checkpoints']} checkpoint(s), "
            f"identity={row['identity']}, seek scan "
            f"{row['scan_full']} -> {row['scan_ckpt']}"
        )
        if not row["identity"]:
            failures.append(
                f"t14/{name}: reconstruction did not reproduce the "
                f"content log entry-for-entry — order-tier debugging "
                f"would diverge from the recording"
            )
        if row["sync_heavy"] and ratio > T14_ORDER_MAX_RATIO:
            failures.append(
                f"t14/{name}: order log is {ratio:.2f}x of the content "
                f"log (> {T14_ORDER_MAX_RATIO}x) — the order tier is "
                f"recording more than the sync order"
            )
        scan_full, scan_ckpt = int(row["scan_full"]), int(row["scan_ckpt"])
        if scan_ckpt > scan_full:
            failures.append(
                f"t14/{name}: checkpoint-seeded restore scanned "
                f"{scan_ckpt} entries, more than the {scan_full} a full "
                f"scan needs"
            )
        if int(row["checkpoints"]) >= 2 and scan_full >= 50 \
                and scan_ckpt * 2 > scan_full:
            failures.append(
                f"t14/{name}: checkpoint-seeded restore scanned "
                f"{scan_ckpt}/{scan_full} entries — checkpoints are not "
                f"bounding the seek"
            )


def check_serve_profile(path, failures):
    with open(path) as f:
        prof = json.load(f)
    c = {k: int(v) for k, v in prof.get("counters", {}).items()}
    names = ("requests", "errors", "cache.hits", "cache.misses",
             "queue_wait_ns", "shed")
    for name in names:
        total = sum(
            v
            for k, v in c.items()
            if k.startswith("serve.s") and k.endswith("." + name)
            and k != f"serve.{name}"
        )
        glob = c.get(f"serve.{name}", 0)
        print(f"perf-gate: serve profile: serve.{name} = {glob}, "
              f"session sum = {total}")
        if glob != total:
            failures.append(
                f"serve profile: serve.{name} ({glob}) != sum of the "
                f"per-session serve.s<ID>.{name} mirrors ({total})"
            )
    if c.get("serve.requests", 0) == 0:
        failures.append("serve profile: no serve.requests recorded")


# Committed precision floors for T16: pairs the protocol-refined MHP
# discharged on each workload when the gate was last updated. The
# analysis is deterministic, so any dip below these is a real
# precision regression, not noise.
T16_DISCHARGE_FLOOR = {
    "pipeline/w2": 7,
    "pipeline/w3": 7,
    "pipeline/w4": 7,
    "ping_pong": 30,
}


def check_t16(data, failures):
    rows = data.get("t16")
    if not rows:
        return
    for row in rows:
        name = row["workload"]
        base = int(row["discharged_base"])
        proto = int(row["discharged_proto"])
        print(
            f"perf-gate: t16/{name}: {row['states']} state(s), "
            f"{base}/{row['conflicting']} pair(s) discharged by "
            f"spawn/join, {proto} with protocol refinement"
        )
        if proto < base:
            failures.append(
                f"t16/{name}: protocol refinement discharged {proto} "
                f"pair(s), fewer than the {base} the spawn/join "
                f"baseline already proves — refinement lost pairs"
            )
        floor = T16_DISCHARGE_FLOOR.get(name)
        if floor is not None and proto < floor:
            failures.append(
                f"t16/{name}: discharged pairs regressed to {proto} "
                f"(committed floor {floor})"
            )


# Daemon survivability (T17): the bench injects every failure the
# resilience layer exists for — deadlines it cannot meet, a poisoned
# co-tenant, a crash/resume cycle, 64 sessions under a byte budget —
# and the acceptance bar is (a) zero protocol errors anywhere, (b)
# every injected failure actually refused (PPD090/PPD050/PPD091
# observed where designed), (c) the healthy p99 beside the poisoned
# co-tenant within 2x the baseline p99 (with a small absolute floor so
# microsecond-scale noise cannot flake the gate), and (d) the memory
# high-water mark within the configured budget plus eviction slack.
T17_ISOLATION_MAX_RATIO = 2.0
T17_ISOLATION_FLOOR_NS = 2_000_000  # both p99s under 2 ms: noise, pass
T17_BUDGET_SLACK = 1.25


def check_t17(data, failures):
    rows = data.get("t17")
    if not rows:
        return
    by_scenario = {}
    for row in rows:
        name = row["scenario"]
        by_scenario[name] = row
        print(
            f"perf-gate: t17/{name}: {row['requests']} request(s), "
            f"{row['errors']} error(s), {row['refused']} refused, "
            f"p50 {row['p50_ns'] / 1e6:.2f} ms, "
            f"p99 {row['p99_ns'] / 1e6:.2f} ms"
        )
        if int(row["errors"]) != 0:
            failures.append(
                f"t17/{name}: {row['errors']} protocol error(s) — "
                f"refusals must be typed PPD090/PPD091/PPD050 answers, "
                f"never malformed or unexpected errors"
            )
        if int(row["requests"]) == 0:
            failures.append(f"t17/{name}: no requests completed")
    for name in (
        "deadline",
        "quarantine_baseline",
        "quarantine_healthy",
        "quarantine_poisoned",
        "recovery",
        "soak64",
    ):
        if name not in by_scenario:
            failures.append(f"t17: missing the {name} row")
    if "deadline" in by_scenario and int(by_scenario["deadline"]["refused"]) == 0:
        failures.append(
            "t17/deadline: no request was refused — the deadline "
            "mechanism never fired under a clock it cannot meet"
        )
    if (
        "quarantine_poisoned" in by_scenario
        and int(by_scenario["quarantine_poisoned"]["refused"]) == 0
    ):
        failures.append(
            "t17/quarantine_poisoned: the poisoned log was never "
            "refused — hard faults are not reaching the breaker"
        )
    if (
        "quarantine_healthy" in by_scenario
        and int(by_scenario["quarantine_healthy"].get("breaker_trips", 0)) == 0
    ):
        failures.append(
            "t17/quarantine_healthy: the co-tenant's breaker never "
            "tripped — quarantine was not exercised"
        )
    if "quarantine_baseline" in by_scenario and "quarantine_healthy" in by_scenario:
        base = float(by_scenario["quarantine_baseline"]["p99_ns"])
        beside = float(by_scenario["quarantine_healthy"]["p99_ns"])
        if (
            beside > T17_ISOLATION_FLOOR_NS
            and base > 0
            and beside / base > T17_ISOLATION_MAX_RATIO
        ):
            failures.append(
                f"t17: healthy p99 beside the poisoned co-tenant is "
                f"{beside / base:.2f}x the baseline "
                f"(> {T17_ISOLATION_MAX_RATIO:.1f}x) — quarantine is "
                f"not isolating sessions"
            )
    if "soak64" in by_scenario:
        row = by_scenario["soak64"]
        cap = int(row.get("budget_cap", 0))
        used = int(row.get("budget_used", 0))
        high = int(row.get("budget_used_max", used))
        if cap <= 0:
            failures.append("t17/soak64: no memory budget was configured")
        else:
            print(
                f"perf-gate: t17/soak64: budget {cap} byte(s), settled "
                f"{used}, high-water {high}"
            )
            if used <= 0:
                failures.append(
                    "t17/soak64: the settled budget gauge reads zero "
                    "with a handle open — memory accounting is dead"
                )
            if high > cap * T17_BUDGET_SLACK:
                failures.append(
                    f"t17/soak64: memory high-water mark {high} exceeds "
                    f"the {cap}-byte budget beyond the "
                    f"{T17_BUDGET_SLACK:.2f}x eviction slack"
                )


def check_profile(path, failures):
    with open(path) as f:
        prof = json.load(f)
    c = prof.get("counters", {})

    def cnt(name):
        return int(c.get(name, 0))

    lookups = cnt("ppd.controller.cache.lookups")
    hits = cnt("ppd.controller.cache.hits")
    misses = cnt("ppd.controller.cache.misses")
    ctl_replays = cnt("ppd.controller.replays")
    emu_replays = cnt("ppd.emulator.replays")
    print(
        f"perf-gate: profile: {lookups} lookup(s) = {hits} hit(s) + "
        f"{misses} miss(es); {ctl_replays} assembled replay(s), "
        f"{emu_replays} emulator replay(s)"
    )
    if hits + misses != lookups:
        failures.append(
            f"profile: cache hits ({hits}) + misses ({misses}) != "
            f"lookups ({lookups})"
        )
    if lookups == 0:
        failures.append("profile: no interval-cache lookups recorded")
    if emu_replays < ctl_replays:
        failures.append(
            f"profile: emulator replays ({emu_replays}) < assembled "
            f"replays ({ctl_replays}) — speculation can only add"
        )
    if ctl_replays > lookups:
        failures.append(
            f"profile: assembled replays ({ctl_replays}) > lookups "
            f"({lookups})"
        )
    phases = {
        s["name"] for s in prof.get("spans", []) if s.get("cat") == "phase"
    }
    for want in ("execution", "debugging"):
        if want not in phases:
            failures.append(f"profile: no '{want}' phase span recorded")


def main():
    args = sys.argv[1:]
    profile = None
    if "--profile" in args:
        i = args.index("--profile")
        profile = args[i + 1]
        del args[i : i + 2]
    serve_profile = None
    if "--serve-profile" in args:
        i = args.index("--serve-profile")
        serve_profile = args[i + 1]
        del args[i : i + 2]
    path = args[0] if args else "bench.json"
    margin = float(args[1]) if len(args) > 1 else 1.4
    with open(path) as f:
        data = json.load(f)

    failures = []
    nrows = check_t10(data, margin, failures)
    check_t1_vm(data, failures)
    check_t11(data, failures)
    check_t12(data, failures)
    check_t13(data, failures)
    check_t14(data, failures)
    check_t16(data, failures)
    check_t17(data, failures)
    if profile:
        check_profile(profile, failures)
    if serve_profile:
        check_serve_profile(serve_profile, failures)
    if failures:
        fail("; ".join(failures))
    cores = int(data.get("host_cores", 0))
    print(f"perf-gate: OK ({nrows} workload(s), host_cores={cores})")


if __name__ == "__main__":
    main()
