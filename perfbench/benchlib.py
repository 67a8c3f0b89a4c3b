"""Statistics and metric assembly shared by run.py, compare.py and
selftest.py. tmbench prints raw per-job observations; everything computed
from them lives here."""

import json
import os
import re
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

TAIL_BEYOND = 10  # a tail has at least this many samples beyond it
TAIL_BLOCK = 100  # samples per block of a blocked tail
POINTS = ("light", "heavy")


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest nearest-rank percentile with at least TAIL_BEYOND
    samples beyond it: the (TAIL_BEYOND + 1)-th largest sample. Returns
    (value, percentile, n)."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        raise ValueError(f"{n} samples are too few for a tail")
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def blocked_tail(values):
    """The median over consecutive blocks of TAIL_BLOCK samples (the last
    block takes the remainder) of each block's tail. A single stall on a
    shared host moves one block's tail, not the reported value. Returns
    (value, block percentile, samples per block, blocks)."""
    blocks = max(len(values) // TAIL_BLOCK, 1)
    size = len(values) // blocks
    tails = [tail(values[b * size:(b + 1) * size if b < blocks - 1 else None])
             for b in range(blocks)]
    return (median([t[0] for t in tails]), tails[0][1], size, blocks)


LADDER_TAIL_LIMIT_MS = 200.0
LADDER_BACKLOG_MS = 50.0


def ladder_step_ok(latencies, failures):
    """A rate-ladder step is sustained when no job failed, its tail meets
    the limit and its backlog did not grow: the median latency of the last
    quarter of its jobs (in schedule order) exceeds that of the first
    quarter by at most LADDER_BACKLOG_MS."""
    if failures or len(latencies) < 2 * TAIL_BEYOND:
        return False
    q = len(latencies) // 4
    return (blocked_tail(latencies)[0] <= LADDER_TAIL_LIMIT_MS and
            median(latencies[-q:]) - median(latencies[:q]) <=
            LADDER_BACKLOG_MS)


def sustained_rate(obs):
    """The highest ladder rate whose step is sustained (0 when none is)."""
    cols, v = obs["columns"], obs["values"]
    best, i = 0.0, 0
    while f"ladder.{i}.rate" in v:
        lat = [x for x, p in zip(cols.get("ladder.latency_ms", []),
                                 cols.get("ladder.point", [])) if p == i]
        failures = failure_count({k: v.get(f"ladder.{i}.{k}", 0) for k in
                                  ("errors", "mismatches", "shed", "expired")})
        if ladder_step_ok(lat, failures):
            best = max(best, v[f"ladder.{i}.rate"])
        i += 1
    return best


def transport_overhead_ms(latency, queue, service, encode, lateness):
    """The part of a remote job's latency no timed layer accounts for:
    socket transfer, server-side decode and reply encode, client read."""
    return latency - queue - service - encode - lateness


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median's magnitude; None
    for a median of 0, where no share exists."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else None


# --- BENCHMARK.json ----------------------------------------------------------

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


def load_spec(path=BENCHMARK_JSON):
    with open(path) as f:
        return json.load(f)


def validate_spec(spec):
    """Problems with a BENCHMARK.json object against the format's rules
    (empty when it conforms)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append(f"keys {sorted(spec)} != {sorted(keys)}")
        return problems
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32 and
            all(isinstance(a, str) and len(a) <= 200 for a in cmd)):
        problems.append("command must be 1..32 strings of <= 200 chars")
    elif any(a.startswith("/") or ".." in a.split("/") for a in cmd):
        problems.append("command names an absolute or escaping path")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16 and
            all(isinstance(p, str) and PATH_RE.match(p) and
                ".." not in p.split("/") for p in paths)):
        problems.append("paths must be 1..16 relative directory names")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and 1 <= rs <= 60):
        problems.append("run_seconds must be a whole number in 1..60")
    names = []
    wl = spec["workloads"]
    if not 2 <= len(wl) <= 8:
        problems.append("2..8 workloads")
    for w in wl:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
        if "\n" in w.get("why", "") or len(w.get("why", "")) > 200:
            problems.append(f"workload {w.get('name')}: why must be one line")
        names.append(w.get("name", ""))
    for group, keys, lo, hi in (
            ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
            ("per_layer", {"name", "unit", "better"}, 1, 128)):
        metrics = spec[group]
        if not lo <= len(metrics) <= hi:
            problems.append(f"{group}: {lo}..{hi} metrics")
        for m in metrics:
            if set(m) != keys:
                problems.append(f"{group} {m.get('name')}: keys {sorted(m)}")
            if not UNIT_RE.match(str(m.get("unit", ""))):
                problems.append(f"{m.get('name')}: bad unit {m.get('unit')}")
            if m.get("better") not in ("lower", "higher"):
                problems.append(f"{m.get('name')}: better must be lower|higher")
            if group == "end_to_end" and not (
                    isinstance(m.get("bound"), (int, float)) and
                    0 < m["bound"] <= 0.25):
                problems.append(f"{m.get('name')}: bound must be in (0, 0.25]")
            names.append(m.get("name", ""))
    for n in names:
        if not isinstance(n, str) or not NAME_RE.match(n):
            problems.append(f"bad name {n!r}")
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        problems.append(f"names used twice: {sorted(dupes)}")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not (setup and setup[0].get("unit") == "s" and
            setup[0].get("better") == "lower"):
        problems.append("end_to_end needs setup_s in s, lower is better")
    return problems


# --- Metrics from tmbench observations ---------------------------------------

def _jobs(obs):
    """Per-job rows from tmbench's column-oriented output."""
    cols = obs["columns"]
    n = len(cols.get("job.point", []))
    return [{k[4:]: v[i] for k, v in cols.items() if k.startswith("job.")}
            for i in range(n)]


def failure_count(values):
    return int(sum(values.get(k, 0) for k in
                   ("errors", "mismatches", "shed", "expired", "gaps")))


def _point_latencies(obs, p):
    """Latencies of point p's untraced jobs, in run order."""
    return [j["latency_ms"] for j in _jobs(obs)
            if j["point"] == p and not j["traced"]]


def end_to_end(obs, setup_values):
    """The end-to-end metrics of one untraced run: {name: (value, unit,
    note)}. Every workload has a light and a heavy operating point."""
    out = {"setup_s": (median(setup_values), "s",
                       f"median of {len(setup_values)} cold starts")}
    for p, point in enumerate(POINTS):
        lat = _point_latencies(obs, p)
        out[f"{point}.latency_p50_ms"] = (median(lat), "ms", f"n={len(lat)}")
    return out


def tails(obs):
    """Each point's tail latency over its untraced jobs: {name: (value,
    unit, note)}. Not gated: on a shared host their run-to-run spread
    exceeds any bound the benchmark may set (see README.md)."""
    out = {}
    for p, point in enumerate(POINTS):
        value, pct, size, blocks = blocked_tail(_point_latencies(obs, p))
        out[f"{point}.latency_tail_ms"] = (
            value, "ms", f"median of {blocks} block p{pct:.2f} "
                         f"(n={size} per block, {TAIL_BEYOND} beyond)")
    return out


def _probe(obs, name):
    return median(obs["columns"].get("probe." + name, []))


def per_layer(obs):
    """The per-layer metrics of one traced run: {name: (value, unit,
    note)}. A layer the workload does not exercise reads 0."""
    jobs = _jobs(obs)
    v = obs["values"]
    attempted = max(v.get("attempted", 0), 1)
    workload = obs["workload"]
    traced = [j for j in jobs if j["traced"]]
    light = [j for j in jobs if j["point"] == 0]
    heavy = [j for j in jobs if j["point"] == 1]
    m = tails(obs)

    def put(name, value, unit, note=""):
        m[name] = (value, unit, note)

    def p50_tail(name, values, unit="ms"):
        put(name + ".p50", median(values), unit, f"n={len(values)}")
        if len(values) >= 2 * TAIL_BEYOND:
            value, pct, size, blocks = blocked_tail(values)
            put(name + ".tail", value, unit,
                f"median of {blocks} block p{pct:.2f}, n={size} per block")
        else:
            put(name + ".tail", 0.0, unit, "not exercised")

    stage_ms = {s: _probe(obs, s + "_ms") for s in
                ("normalize", "intensity", "masking", "adjust")}
    for s, value in stage_ms.items():
        put(f"tonemap.{s}_ms", value, "ms", "1 thread")
    for t in ("t1", "t4"):
        put(f"tonemap.fused_ms.{t}", _probe(obs, "fused_ms." + t), "ms")
        put(f"exec.blur_ms.{t}", _probe(obs, "blur_ms." + t), "ms")
    put("exec.plan_us", _probe(obs, "plan_us"), "us")

    # The untraced light-point frame time the stage sum is set against:
    # the call itself in-process, the server's service time remotely. A
    # stream's service_seconds does not cover the frame's compute (the
    # session stamps it after the synchronous depth-1 submit), so streams
    # use their latency, an upper bound.
    untraced_light = [j for j in light if not j["traced"]]
    key = "service_ms" if workload == "serve_remote" else "latency_ms"
    compute = median([j[key] for j in untraced_light])
    stage_sum = sum(stage_ms.values()) + _probe(obs, "blur_ms.t1")
    put("tonemap.coverage", stage_sum / compute if compute else 0.0,
        "ratio", f"stage sum {stage_sum:.2f} ms / {compute:.2f} ms")

    put("image.fresh_allocs_per_job",
        v.get("image.fresh_allocs", 0) / attempted, "count")
    acquires = v.get("image.pool_acquires", 0)
    put("image.pool_hit_rate",
        v.get("image.pool_hits", 0) / acquires if acquires else 0.0, "ratio")

    remote = workload == "serve_remote"
    p50_tail("serve.queue_ms",
             [j["queue_ms"] for j in heavy] if remote else [])
    p50_tail("serve.service_ms",
             [j["service_ms"] for j in light] if remote else [])
    completed = v.get("serve.completed", 0)
    put("serve.session_builds_per_job",
        v.get("serve.session_builds", 0) / completed if completed else 0.0,
        "count")
    for c in ("rebalanced", "shed", "degraded", "expired"):
        put("serve." + c, v.get("serve." + c, 0), "count")
    put("serve.sustained_rate_jps", sustained_rate(obs), "jobs/s",
        f"ladder from 45 jobs/s in steps of 5, tail <= "
        f"{LADDER_TAIL_LIMIT_MS:.0f} ms")

    rt = traced if remote else []
    for layer in ("encode", "send", "decode"):
        put(f"transport.{layer}_ms", median([j[layer + "_ms"] for j in rt]),
            "ms", f"n={len(rt)}")
    put("transport.overhead_ms", median([
        transport_overhead_ms(j["latency_ms"], j["queue_ms"],
                              j["service_ms"], j["encode_ms"],
                              j["lateness_ms"]) for j in rt]), "ms")
    put("transport.bytes_per_job",
        statistics.fmean([j["bytes"] for j in rt]) if rt else 0.0, "B")
    put("transport.errors_sent", v.get("transport.errors_sent", 0), "count")

    streaming = workload == "stream_video"
    sj = jobs if streaming else []
    p50_tail("stream.service_ms", [j["service_ms"] for j in sj])
    put("stream.overhead_ms",
        median([j["latency_ms"] - j["service_ms"] for j in sj]), "ms")
    put("stream.credit_stall_ms",
        median([j["stall_ms"] for j in sj if j["traced"]]), "ms")
    put("stream.rung_switches", v.get("stream.rung_switches", 0), "count")
    put("stream.frames_shed", v.get("shed", 0) if streaming else 0, "count")
    put("stream.frames_expired", v.get("expired", 0) if streaming else 0,
        "count")

    put("proc.cpu_ms_per_job", v.get("proc.cpu_ms", 0) / attempted, "ms")
    put("proc.peak_rss_mb", v.get("proc.peak_rss_mb", 0), "MB")
    p50_tail("gen.lateness_ms",
             [j["lateness_ms"] for j in traced] if workload != "frame_paper"
             else [])

    put("fail_ratio", failure_count(v) / attempted, "ratio")
    put("full_quality_ratio",
        sum(j["full_quality"] for j in jobs) / attempted, "ratio")
    lat_t = median([j["latency_ms"] for j in light if j["traced"]])
    lat_u = median([j["latency_ms"] for j in untraced_light])
    put("trace.overhead_pct", 100.0 * (lat_t - lat_u) / lat_u if lat_u else 0,
        "%", f"light p50 traced {lat_t:.3f} ms vs untraced {lat_u:.3f} ms")
    return m
