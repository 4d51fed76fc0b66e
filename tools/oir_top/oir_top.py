#!/usr/bin/env python3
"""oir_top: live terminal dashboard for a running OIR process.

Point any OIR binary at a stats file (OIR_STATS_PUBLISH=/tmp/oir_stats.json
or DbOptions::stats_publish_path) and run

    python3 tools/oir_top/oir_top.py /tmp/oir_stats.json

The database publishes DumpStatsJson() atomically (temp + rename) every
publish interval; this tool polls the file and renders rates computed from
consecutive snapshots: operation throughput, per-operation wait-state
stacks (where read/write/commit/rebuild wall-clock actually goes), buffer
pool hit rates, WAL group-commit efficiency and rebuild progress.

Stdlib only. --once prints a single frame and exits (no ANSI cursor
control), which is what the docs use to capture example output.
"""

import argparse
import json
import os
import sys
import time

# Wait-state keys as emitted by obs::WaitProfiler::ToJson, with one glyph
# and ANSI color each for the stacked bar.
STATES = [
    ("running", "R", "32"),          # green
    ("latch_wait", "L", "33"),       # yellow
    ("lock_wait", "K", "31"),        # red
    ("wal_commit_wait", "W", "35"),  # magenta
    ("io_wait", "I", "34"),          # blue
    ("throttled", "T", "36"),        # cyan
]
OPS = ["read", "write", "commit", "rebuild", "other"]
BAR_WIDTH = 40


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def fmt_count(v):
    for unit, div in (("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if v >= div:
            return f"{v / div:.1f}{unit}"
    return f"{v:.0f}"


def fmt_ns(ns):
    if ns >= 1e9:
        return f"{ns / 1e9:.2f}s"
    if ns >= 1e6:
        return f"{ns / 1e6:.2f}ms"
    if ns >= 1e3:
        return f"{ns / 1e3:.1f}us"
    return f"{ns:.0f}ns"


def colored(text, code, use_color):
    return f"\x1b[{code}m{text}\x1b[0m" if use_color else text


def op_delta(cur, prev, op):
    """Per-op (count, wall_ns, {state: ns}) accumulated since `prev`."""
    c = cur.get("wait_profile", {}).get(op)
    if c is None:
        return None
    p = (prev or {}).get("wait_profile", {}).get(op, {})
    count = c.get("count", 0) - p.get("count", 0)
    wall = c.get("wall_ns", 0) - p.get("wall_ns", 0)
    states = {
        k: c.get("states", {}).get(k, 0) - p.get("states", {}).get(k, 0)
        for k, _, _ in STATES
    }
    if count < 0 or wall < 0:  # process restarted; treat as absolute
        return c.get("count", 0), c.get("wall_ns", 0), c.get("states", {})
    return count, wall, states


def wait_bar(states, wall, use_color):
    """Stacked horizontal bar: one colored run per wait state."""
    if wall <= 0:
        return " " * BAR_WIDTH
    cells = []
    for key, glyph, code in STATES:
        n = round(BAR_WIDTH * states.get(key, 0) / wall)
        cells.append(colored(glyph * n, code, use_color))
    bar = "".join(cells)
    # Rounding can over/undershoot by a cell or two; clamp to width.
    plain = len(bar) if not use_color else sum(
        round(BAR_WIDTH * states.get(k, 0) / wall) for k, _, _ in STATES
    )
    if plain < BAR_WIDTH:
        bar += " " * (BAR_WIDTH - plain)
    return bar


def render(cur, prev, dt, path, use_color):
    lines = []
    now = time.strftime("%H:%M:%S")
    lines.append(f"oir_top — {path} — {now}  (interval {dt:.1f}s)")
    lines.append("")

    # --- operation throughput + wait-state stacks -----------------------
    rates = []
    for op in OPS:
        d = op_delta(cur, prev, op)
        if d is None or d[0] == 0:
            continue
        rates.append(f"{op} {fmt_count(d[0] / dt)}/s")
    lines.append("ops:   " + ("  ".join(rates) if rates else "(idle)"))
    lines.append("")
    legend = "  ".join(
        colored(f"{g}={k}", c, use_color) for k, g, c in STATES
    )
    lines.append(f"wait-state share of op wall-clock   {legend}")
    for op in OPS:
        d = op_delta(cur, prev, op)
        if d is None or d[1] <= 0:
            continue
        count, wall, states = d
        bar = wait_bar(states, wall, use_color)
        top = max(
            ((k, states.get(k, 0)) for k, _, _ in STATES if k != "running"),
            key=lambda kv: kv[1],
            default=("-", 0),
        )
        mean = fmt_ns(wall / count) if count else "-"
        detail = f"mean {mean:>8}"
        if top[1] > 0:
            detail += f"  top wait: {top[0]} {100.0 * top[1] / wall:.0f}%"
        lines.append(f"  {op:<8}|{bar}| {detail}")
    lines.append("")

    # --- buffer pool ----------------------------------------------------
    pool = cur.get("pool", {})
    hits, misses = pool.get("hits", 0), pool.get("misses", 0)
    ppool = (prev or {}).get("pool", {})
    dh = hits - ppool.get("hits", hits)
    dm = misses - ppool.get("misses", misses)
    total = hits + misses
    rate = 100.0 * hits / total if total else 0.0
    irate = 100.0 * dh / (dh + dm) if (dh + dm) > 0 else rate
    lines.append(
        f"pool:  hit {irate:5.1f}% (cum {rate:5.1f}%)  "
        f"cached {pool.get('cached_pages', 0)}/{pool.get('frames', 0)}  "
        f"evict/s {fmt_count(max(0, pool.get('evictions', 0) - ppool.get('evictions', 0)) / dt)}"
    )

    # --- WAL ------------------------------------------------------------
    wal = cur.get("wal", {})
    pwal = (prev or {}).get("wal", {})
    dc = wal.get("commits_acked", 0) - pwal.get("commits_acked", 0)
    dg = wal.get("groups_acked", 0) - pwal.get("groups_acked", 0)
    group = f"{dc / dg:.1f}" if dg > 0 else "-"
    lag = wal.get("tail_lsn", 0) - wal.get("durable_lsn", 0)
    lines.append(
        f"wal:   commits/s {fmt_count(max(0, dc) / dt)}  "
        f"group size {group}  durable lag {lag} B  "
        f"backend {wal.get('backend', '?')}/{wal.get('sync_mode', '?')}"
    )

    # --- rebuild --------------------------------------------------------
    g = cur.get("rebuild_progress", {})
    if g.get("running"):
        done = g.get("leaves_rebuilt", 0)
        tot = g.get("leaves_total", 0)
        pct = 100.0 * done / tot if tot else 0.0
        width = 24
        fill = round(width * pct / 100.0)
        bar = colored("#" * fill, "32", use_color) + "." * (width - fill)
        lines.append(
            f"rebuild: [{bar}] {pct:5.1f}%  {done}/{tot} leaves  "
            f"top actions {g.get('top_actions', 0)}"
        )
    else:
        rb = cur.get("rebuild", {})
        if rb:
            lines.append(
                f"rebuild: idle (last: {rb.get('new_leaf_pages', 0)} leaves, "
                f"{fmt_ns(rb.get('wall_ns', 0))})"
            )
        else:
            lines.append("rebuild: idle")

    # --- locks ----------------------------------------------------------
    lock = cur.get("lock", {})
    lines.append(
        f"locks: held keys {lock.get('locked_keys', 0)}  "
        f"waits {lock.get('waits', 0)}  "
        f"watchdog fires {lock.get('watchdog_fires', 0)}"
    )
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "stats_file",
        nargs="?",
        default=os.environ.get("OIR_STATS_PUBLISH", ""),
        help="stats file the database publishes (default: $OIR_STATS_PUBLISH)",
    )
    ap.add_argument(
        "--interval", type=float, default=1.0, help="poll seconds (default 1)"
    )
    ap.add_argument(
        "--once", action="store_true",
        help="render one frame from two polls and exit (for scripts/docs)",
    )
    ap.add_argument(
        "--no-color", action="store_true", help="disable ANSI colors"
    )
    args = ap.parse_args()
    if not args.stats_file:
        ap.error("no stats file given and OIR_STATS_PUBLISH is unset")
    use_color = not args.no_color and sys.stdout.isatty()

    prev, prev_t = None, None
    deadline = time.time() + 10.0
    while prev is None:
        prev = load(args.stats_file)
        prev_t = time.time()
        if prev is None:
            if time.time() > deadline:
                print(f"oir_top: no readable stats at {args.stats_file}",
                      file=sys.stderr)
                return 1
            time.sleep(0.2)

    try:
        while True:
            time.sleep(args.interval)
            cur = load(args.stats_file)
            now = time.time()
            if cur is None:
                continue
            frame = render(cur, prev, max(now - prev_t, 1e-3),
                           args.stats_file, use_color)
            if args.once:
                print(frame)
                return 0
            # Home the cursor and clear to end of screen: flicker-free
            # redraw without curses.
            sys.stdout.write("\x1b[H\x1b[J" + frame + "\n")
            sys.stdout.flush()
            prev, prev_t = cur, now
    except KeyboardInterrupt:
        return 0


if __name__ == "__main__":
    sys.exit(main())
