#!/usr/bin/env python3
"""Model-vs-measured divergence gate (CI).

Holds fresh SWEEP_*.json measurements (bench_sweep) against the
committed MODEL_*.json scaling laws (bench_sweep --fit, checked in
under bench/models/). Two checks per metric:

  envelope  every fresh point must predict within the model's
            envelope. "sim" and "count" metrics (deterministic given
            the seed) are held absolutely; "host" metrics (wall-clock
            rates that track machine speed) are first normalized by
            their smallest-x point, so only the *shape* is gated and
            a faster or slower CI machine cannot trip it.
  class     the fresh fit — the MODEL_<sweep>.json that
            `bench_sweep --fit` wrote beside each SWEEP_<sweep>.json,
            from the one fitter in src/model/fit.cc — must grow by the
            same factor across the committed domain as the committed
            model, within --class-tol (factor). A metric that changed
            scaling class — linear turned quadratic — fails even
            when each point still squeaks inside the envelope.
            Needs >= 3 distinct fresh x values; skipped below that.
            Host metrics get twice the tolerance: their few-point
            fits chase machine noise, and the gate must not flake
            on a loaded CI runner.

Each metric's class is the one its sweep declared; the fresh fit must
carry the same class as the committed model. A missing fresh fit
fails the gate.

Usage:
  model_check.py [--models-dir=DIR] [--class-tol=2.0] SWEEP_FILE...
  model_check.py --self-test

Exit 0 when every metric of every sweep conforms, 1 otherwise.
--self-test synthesizes passing and diverging datasets (including a
scaling-class regression inside a loose envelope) and verifies the
gate accepts and rejects them; it is CI's proof that the gate can
actually fail. Standard library only.
"""

import json
import math
import os
import sys
import tempfile

def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    return 1


# ----------------------------------------------------------------
# evaluating a committed or fresh fit
# ----------------------------------------------------------------

def term_eval(x, exp, log_pow):
    g = x ** exp
    if log_pow:
        g *= math.log2(x) ** log_pow
    return g


def model_eval(m, x):
    if m["constant"]:
        return m["c"]
    return m["c"] + m["a"] * term_eval(x, m["exp"], m["log"])


def term_text(m):
    if m["constant"]:
        return "const"
    s = f"n^{m['exp']:.2f}"
    if m["log"]:
        s += f"*log2(n)^{m['log']}"
    return s


# ----------------------------------------------------------------
# the gate
# ----------------------------------------------------------------

def check_metric(sweep_name, mm, pts, fresh, class_tol):
    """One metric of one sweep against its committed model @mm and
    its fresh fit @fresh; returns (rc, summary line)."""
    name = f"{sweep_name}/{mm['metric']}"
    cls = mm["class"]
    if fresh["class"] != cls:
        return fail(f"{name}: the fresh fit is class {fresh['class']} "
                    f"but the committed model is class {cls} — "
                    f"commit the model bench_sweep --fit wrote"), ""
    in_domain = [(x, y) for x, y in pts
                 if mm["xmin"] * (1 - 1e-9) <= x
                 <= mm["xmax"] * (1 + 1e-9)]
    if not in_domain:
        return fail(f"{name}: no fresh points inside the model "
                    f"domain [{mm['xmin']:g}, {mm['xmax']:g}]"), ""
    rc = 0

    # Envelope. Host metrics compare shape only: both sides get
    # normalized by their value at the smallest fresh x.
    preds = [(x, model_eval(mm, x)) for x, _y in in_domain]
    scale = max(max(abs(y) for _x, y in in_domain),
                max(abs(p) for _x, p in preds))
    floor = max(1e-12, 1e-3 * scale)
    if cls == "host":
        y0 = in_domain[0][1]
        p0 = preds[0][1]
        if abs(y0) < floor or abs(p0) < floor:
            return fail(f"{name}: host normalization point is "
                        f"zero"), ""
        rows = [(x, y / y0, p / p0)
                for (x, y), (_x, p) in zip(in_domain, preds)]
    else:
        rows = [(x, y, p)
                for (x, y), (_x, p) in zip(in_domain, preds)]
    worst = 0.0
    for x, y, p in rows:
        err = abs(y - p) / max(abs(p), floor if cls != "host"
                               else 1e-9)
        worst = max(worst, err)
        if err > mm["envelope"]:
            rc |= fail(
                f"{name}: at {mm.get('param', 'x')}={x:g} measured "
                f"{y:.6g} vs predicted {p:.6g} "
                f"({err * 100:.1f}% > envelope "
                f"{mm['envelope'] * 100:.0f}%)"
                + (" [shape-normalized]" if cls == "host" else ""))

    # Scaling class: compare the total growth of the fresh fit and
    # the committed model over the domain. Host rates wobble
    # point-to-point on a busy runner, and a 3-point fit happily
    # turns that wobble into a small exponent, so they get double
    # headroom before "the class changed".
    eff_tol = class_tol * 2 if cls == "host" else class_tol
    class_note = "class n/a"
    if len({x for x, _ in in_domain}) >= 3:
        lo = model_eval(mm, mm["xmin"])
        hi = model_eval(mm, mm["xmax"])
        flo = model_eval(fresh, mm["xmin"])
        fhi = model_eval(fresh, mm["xmax"])
        eps = floor
        if min(abs(lo), abs(flo)) > eps:
            g_model = abs(hi) / abs(lo)
            g_fresh = abs(fhi) / abs(flo)
            ratio = (max(g_model, g_fresh) /
                     max(min(g_model, g_fresh), 1e-12))
            class_note = (f"class {term_text(fresh)} vs committed "
                          f"{term_text(mm)} (growth x{g_fresh:.2f} "
                          f"vs x{g_model:.2f})")
            if ratio > eff_tol:
                rc |= fail(
                    f"{name}: scaling class diverged — fresh fit "
                    f"{term_text(fresh)} grows x{g_fresh:.2f} over "
                    f"[{mm['xmin']:g}, {mm['xmax']:g}] vs the "
                    f"committed {term_text(mm)} x{g_model:.2f} "
                    f"(ratio {ratio:.2f} > {eff_tol:g})")
    line = (f"  {name}: {'FAIL' if rc else 'ok'} "
            f"(worst {worst * 100:.1f}% of "
            f"{mm['envelope'] * 100:.0f}% envelope [{cls}], "
            f"{class_note})")
    return rc, line


def check_sweep_file(path, models_dir, class_tol):
    try:
        with open(path, encoding="utf-8") as f:
            sweep = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: unreadable: {e}")
    if sweep.get("kind") != "sweep":
        return fail(f"{path}: not a sweep document")
    name = sweep.get("sweep", "?")
    model_path = os.path.join(models_dir, f"MODEL_{name}.json")
    try:
        with open(model_path, encoding="utf-8") as f:
            model = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: committed model {model_path} "
                    f"unreadable: {e}")
    if model.get("kind") != "model":
        return fail(f"{model_path}: not a model document")
    fresh_path = os.path.join(os.path.dirname(path),
                              f"MODEL_{name}.json")
    try:
        with open(fresh_path, encoding="utf-8") as f:
            fresh_model = json.load(f)
    except FileNotFoundError:
        return fail(f"{path}: no fresh fit {fresh_path} beside it — "
                    f"run bench_sweep --fit")
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: fresh fit {fresh_path} unreadable: {e}")
    if fresh_model.get("kind") != "model":
        return fail(f"{fresh_path}: not a model document")
    fresh_fits = {m["metric"]: m
                  for m in fresh_model.get("metrics", [])}

    series = {}
    for p in sweep.get("points", []):
        for k, v in p.get("metrics", {}).items():
            series.setdefault(k, []).append((p["x"], v))
    for pts in series.values():
        pts.sort()

    rc = 0
    lines = []
    checked = 0
    for mm in model.get("metrics", []):
        pts = series.get(mm["metric"])
        if pts is None:
            rc |= fail(f"{name}/{mm['metric']}: committed model has "
                       f"no fresh measurement in {path}")
            continue
        fresh = fresh_fits.get(mm["metric"])
        if fresh is None:
            rc |= fail(f"{name}/{mm['metric']}: no fresh fit in "
                       f"{fresh_path}")
            continue
        mm = dict(mm, param=sweep.get("param", "x"))
        mrc, line = check_metric(name, mm, pts, fresh, class_tol)
        rc |= mrc
        if line:
            lines.append(line)
        checked += 1
    print(f"{path}: {checked} metrics vs {model_path}")
    for line in lines:
        print(line)
    if checked == 0:
        rc |= fail(f"{path}: no metrics checked")
    return rc


# ----------------------------------------------------------------
# --self-test: the gate must accept good data and reject divergence
# ----------------------------------------------------------------

def _write(tmp, fname, doc):
    path = os.path.join(tmp, fname)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return path


def _model_doc(sweep, metrics):
    return {"kind": "model", "sweep": sweep, "bench": "selftest",
            "param": "n", "unit": "n", "metrics": metrics}


def _sweep_doc(sweep, rows):
    return {"kind": "sweep", "sweep": sweep, "bench": "selftest",
            "param": "n", "unit": "n",
            "points": [{"x": x, "metrics": m} for x, m in rows]}


def _metric(name, cls, c, a, exp, log, envelope, xmin, xmax):
    """The fields of one model-document metric that the gate reads."""
    return {"metric": name, "class": cls, "c": c, "a": a,
            "exp": exp, "log": log, "constant": a == 0.0,
            "xmin": xmin, "xmax": xmax, "envelope": envelope}


def self_test():
    xs = [4.0, 8.0, 16.0, 32.0, 64.0]
    rc = 0
    with tempfile.TemporaryDirectory() as tmp:
        models = os.path.join(tmp, "models")
        os.mkdir(models)
        # Committed: lat_us = 5 + 2n (sim, 10%), rate = const 100
        # with a deliberately loose 1000% envelope (host).
        _write(models, "MODEL_good.json", _model_doc("good", [
            _metric("lat_us", "sim", 5.0, 2.0, 1.0, 0, 0.10, 4, 64),
            _metric("rate_per_sec", "host", 100.0, 0.0, 0.0, 0,
                    10.0, 4, 64),
        ]))

        def case(label, rows, fresh_fits, want_pass):
            """Write SWEEP_good.json and (unless @fresh_fits is None)
            its fresh MODEL_good.json, run the gate, and check the
            verdict."""
            nonlocal rc
            fresh_dir = tempfile.mkdtemp(dir=tmp)
            path = _write(fresh_dir, "SWEEP_good.json",
                          _sweep_doc("good", rows))
            if fresh_fits is not None:
                _write(fresh_dir, "MODEL_good.json",
                       _model_doc("good", fresh_fits))
            passed = check_sweep_file(path, models, 2.0) == 0
            if passed != want_pass:
                rc |= fail(f"self-test: {label} was "
                           f"{'accepted' if passed else 'rejected'}")
            else:
                print(f"self-test: {label} "
                      f"{'accepted' if passed else 'rejected'} (good)")

        # 1. Fresh data on the law (2% wiggle; host scaled 3x to
        #    prove shape normalization absorbs machine speed).
        case("conforming sweep",
             [(x, {"lat_us": (5 + 2 * x) * (1.02 if i % 2 else 0.98),
                   "rate_per_sec": 300.0})
              for i, x in enumerate(xs)],
             [_metric("lat_us", "sim", 5.0, 2.0, 1.0, 0, 0.1, 4, 64),
              _metric("rate_per_sec", "host", 300.0, 0.0, 0.0, 0,
                      0.35, 4, 64)],
             True)

        # 2. Envelope violation: latency 60% high.
        case("envelope violation",
             [(x, {"lat_us": (5 + 2 * x) * 1.6,
                   "rate_per_sec": 100.0}) for x in xs],
             [_metric("lat_us", "sim", 8.0, 3.2, 1.0, 0, 0.1, 4, 64),
              _metric("rate_per_sec", "host", 100.0, 0.0, 0.0, 0,
                      0.35, 4, 64)],
             False)

        # 3. Scaling-class regression hiding inside the loose host
        #    envelope: the flat rate turned into x^0.75 growth (x8
        #    over the domain). Every normalized point stays within
        #    1000%, so only the class check can catch it — and it
        #    must clear the doubled host tolerance.
        case("scaling-class regression",
             [(x, {"lat_us": 5 + 2 * x,
                   "rate_per_sec": 100.0 * (x / 4.0) ** 0.75})
              for x in xs],
             [_metric("lat_us", "sim", 5.0, 2.0, 1.0, 0, 0.1, 4, 64),
              _metric("rate_per_sec", "host", 0.0,
                      100.0 / 4.0 ** 0.75, 0.75, 0, 0.35, 4, 64)],
             False)

        # 4. A sweep whose fresh fit was never written.
        case("sweep without a fresh fit",
             [(x, {"lat_us": 5 + 2 * x, "rate_per_sec": 100.0})
              for x in xs],
             None, False)
    print("self-test:", "FAIL" if rc else "all checks passed")
    return rc


def main(argv):
    models_dir = "bench/models"
    class_tol = 2.0
    files = []
    for arg in argv[1:]:
        if arg == "--self-test":
            return self_test()
        if arg.startswith("--models-dir="):
            models_dir = arg.split("=", 1)[1]
        elif arg.startswith("--class-tol="):
            class_tol = float(arg.split("=", 1)[1])
        else:
            files.append(arg)
    if not files:
        print(__doc__, file=sys.stderr)
        return 2
    rc = 0
    for path in files:
        rc |= check_sweep_file(path, models_dir, class_tol)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv))
