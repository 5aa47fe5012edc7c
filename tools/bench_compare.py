#!/usr/bin/env python3
"""Diff bench JSON reports against committed baselines (CI perf gate).

Compares every metric of one or more `BENCH_<name>.json` candidate
files (written by the benches' `--json-out=`) against the baseline of
the same basename under `bench/baselines/`. Metrics are matched by
flattened dotted path. Only paths present in BOTH documents are
compared, so adding a metric to a bench never breaks the gate — but
one-sided paths are never silently dropped either: baseline-only
(dropped) and candidate-only (added) metrics each get a WARN line and
both counts appear in the per-file summary.

Every metric is an object {"value", "unit", "class", "better"}: the
bench declares its unit, class and better direction where it emits
it (obs::BenchReport::set), and this gate reads them from the JSON.
Nothing is guessed from the metric's name. Per class (relative change
in the worse direction):

  sim    model-time-derived metrics: deterministic given the seed, so
         tight — fail beyond --fail-pct (default 15), warn beyond
         --warn-pct (default 5).
  host   host wall-clock times and rates: noisy across CI machines —
         fail only beyond --host-fail-pct (default 50), never warn.
  count  workload counts: differences mean the workload changed, not
         a perf regression — report as info, never fail.

`better` is "higher" or "lower": a metric regresses only when it moves
the other way. Improvements are reported but never gate.

Usage:
  bench_compare.py [--baseline-dir=DIR] [--fail-pct=P] [--warn-pct=P]
                   [--host-fail-pct=P] [--tol=REGEX:PCT ...] FILE...

`--tol=REGEX:PCT` overrides the fail threshold for metrics whose
`<file-stem>.<dotted.path>` matches REGEX (first match wins).

Exit status: 1 when any metric fails, when a baseline is missing,
when either file is unreadable or not valid JSON (a renamed bench or
a corrupted baseline must fail the gate loudly, never skip it), when
a metric lacks valid metadata, or when baseline and candidate declare
a different unit, class or direction for the same path (a silent
reclass would move a metric between bounds); 0 otherwise (warnings
do not fail). Standard library only.
"""

import json
import os
import re
import sys

CLASSES = ("sim", "host", "count")
DIRECTIONS = ("lower", "higher")
META = ("unit", "class", "better")


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def flatten(doc, prefix=""):
    """Metrics of a bench document as {dotted.path: metric object}.

    An object with a "value" key is a metric. A bare numeric leaf is a
    metric without metadata; it comes back as {"value": v} so the
    caller reports it.
    """
    out = {}
    if isinstance(doc, dict):
        if "value" in doc:
            out[prefix] = doc
            return out
        for k, v in doc.items():
            p = f"{prefix}.{k}" if prefix else k
            out.update(flatten(v, p))
    elif is_num(doc):
        out[prefix] = {"value": doc}
    return out


def meta_error(m):
    """What is wrong with the unit/class/better of metric object @m,
    or None when they are complete and valid."""
    missing = [k for k in META if k not in m]
    if missing:
        return f"no {'/'.join(missing)} metadata"
    if not isinstance(m["unit"], str) or not m["unit"]:
        return "unit is not a non-empty string"
    for key, allowed in (("class", CLASSES), ("better", DIRECTIONS)):
        if m[key] not in allowed:
            return f"{key} {m[key]!r} is not one of {', '.join(allowed)}"
    return None


def metric_error(m):
    """Why metric object @m cannot be gated, or None when it can."""
    if not is_num(m.get("value")):
        return "value is not a number"
    return meta_error(m)


def regression_pct(better, base, cand):
    """Relative change in the *worse* direction, as a percentage.

    Positive = regressed, negative = improved, None = no baseline
    magnitude to compare against.
    """
    if base == 0:
        return None
    change = (cand - base) / abs(base) * 100.0
    return -change if better == "higher" else change


def load_metrics(path, role):
    """Flattened metrics of one JSON file, or None with a FAIL line.

    Never raises for a bad file: a missing, unreadable or unparsable
    document prints a one-line diagnosis naming the file and its role
    (candidate/baseline) so the gate fails with a clear reason rather
    than a traceback or a silent skip.
    """
    try:
        with open(path, encoding="utf-8") as f:
            return flatten(json.load(f))
    except FileNotFoundError:
        print(f"FAIL  {role} {path}: file not found"
              + (" — regenerate it with the bench's --json-out= and "
                 "commit it" if role == "baseline" else ""))
    except OSError as e:
        print(f"FAIL  {role} {path}: unreadable: {e}")
    except json.JSONDecodeError as e:
        print(f"FAIL  {role} {path}: invalid JSON: {e}")
    return None


def compare_file(path, baseline_dir, opts):
    name = os.path.basename(path)
    base_path = os.path.join(baseline_dir, name)
    cand = load_metrics(path, "candidate")
    base = load_metrics(base_path, "baseline")
    if cand is None or base is None:
        return 1

    stem = re.sub(r"^BENCH_|\.json$", "", name)
    shared = sorted(set(cand) & set(base))
    # Paths on one side only are never silently intersected away: a
    # dropped metric is how a renamed key or a lost measurement pass
    # hides from the gate, an added one is a baseline waiting to be
    # regenerated. Both get loud WARN lines and show up in the
    # summary count.
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    if only_base:
        print(f"WARN  {name}: {len(only_base)} baseline metrics "
              f"dropped from candidate (not compared): "
              f"{', '.join(only_base[:5])}"
              f"{' ...' if len(only_base) > 5 else ''}")
    if only_cand:
        print(f"WARN  {name}: {len(only_cand)} candidate metrics "
              f"missing from baseline (not gated): "
              f"{', '.join(only_cand[:5])}"
              f"{' ...' if len(only_cand) > 5 else ''}")
    rc = 0
    for role, doc in (("baseline", base), ("candidate", cand)):
        for p, m in sorted(doc.items()):
            err = metric_error(m)
            if err:
                print(f"FAIL  {name}:{p}: {role} metric unusable: {err}")
                rc = 1
    for p in shared:
        bm, cm = base[p], cand[p]
        if metric_error(bm) or metric_error(cm):
            continue
        label = f"{name}:{p}"
        if any(bm[k] != cm[k] for k in META):
            print(f"FAIL  {label}: metadata differs — baseline "
                  f"{'/'.join(str(bm[k]) for k in META)}, candidate "
                  f"{'/'.join(str(cm[k]) for k in META)} "
                  f"(regenerate the baseline)")
            rc = 1
            continue
        b, c = bm["value"], cm["value"]
        cls = bm["class"]
        reg = regression_pct(bm["better"], b, c)
        fail_pct = opts["host_fail"] if cls == "host" \
            else opts["fail"]
        for pat, pct in opts["overrides"]:
            if pat.search(f"{stem}.{p}"):
                fail_pct = pct
                break
        if reg is None or cls == "count":
            if b != c:
                print(f"INFO  {label}: {b:g} -> {c:g} ({cls})")
            continue
        if reg > fail_pct:
            print(f"FAIL  {label}: {b:g} -> {c:g} "
                  f"(regressed {reg:.1f}% > {fail_pct:g}% allowed, "
                  f"class {cls})")
            rc = 1
        elif cls == "sim" and reg > opts["warn"]:
            print(f"WARN  {label}: {b:g} -> {c:g} "
                  f"(regressed {reg:.1f}%)")
        elif reg < -opts["warn"]:
            print(f"GOOD  {label}: {b:g} -> {c:g} "
                  f"(improved {-reg:.1f}%)")
    if rc == 0:
        print(f"OK    {name}: {len(shared)} metrics within "
              f"tolerance ({len(only_base)} dropped, "
              f"{len(only_cand)} added)")
    return rc


def main(argv):
    baseline_dir = "bench/baselines"
    opts = {"fail": 15.0, "warn": 5.0, "host_fail": 50.0,
            "overrides": []}
    files = []
    for arg in argv[1:]:
        if arg.startswith("--baseline-dir="):
            baseline_dir = arg.split("=", 1)[1]
        elif arg.startswith("--fail-pct="):
            opts["fail"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--warn-pct="):
            opts["warn"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--host-fail-pct="):
            opts["host_fail"] = float(arg.split("=", 1)[1])
        elif arg.startswith("--tol="):
            spec = arg.split("=", 1)[1]
            pat, _, pct = spec.rpartition(":")
            if not pat:
                print(f"--tol wants REGEX:PCT, got '{spec}'",
                      file=sys.stderr)
                return 2
            opts["overrides"].append((re.compile(pat), float(pct)))
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            files.append(arg)
    if not files:
        print(__doc__, file=sys.stderr)
        return 2

    rc = 0
    for path in files:
        rc |= compare_file(path, baseline_dir, opts)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
