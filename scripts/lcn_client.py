#!/usr/bin/env python3
"""Minimal NDJSON client for the lcn_serve daemon (DESIGN.md S22).

Standard library only. One JSON object per line in both directions:

  lcn_client.py --addr tcp:127.0.0.1:7733 ping
  lcn_client.py --addr unix:/tmp/lcn.sock submit --kind evaluate --case 1
  lcn_client.py --addr tcp:127.0.0.1:7733 result --job 3
  lcn_client.py --addr tcp:127.0.0.1:7733 smoke --scale 0.005
  lcn_client.py --addr tcp:127.0.0.1:7733 metrics
  lcn_client.py --addr tcp:127.0.0.1:7733 scrape

The `smoke` mode is what CI runs against an asan build of the daemon: it
submits two concurrent *streamed* design jobs at a tiny SA scale, then reads
the multiplexed event stream off the single connection and checks that every
job acks, starts, emits sa_iter progress, and lands a final `done` result.
Exits nonzero on any failure or on hitting --timeout.

`metrics` fetches the JSON metrics snapshot over the NDJSON protocol and
validates its shape. `scrape` speaks raw HTTP to the same port (the daemon
co-hosts a Prometheus text endpoint, DESIGN.md S24) and validates the
exposition with a stdlib-only parser: every histogram's buckets must be
cumulative and its `+Inf` bucket must equal `_count`, no family may be
declared by two `# TYPE` lines, and every `_total` sample must belong to a
declared family.
"""

import argparse
import json
import socket
import sys
import time


def connect(addr, timeout):
    """Open a socket to `addr` ('unix:/path' or 'tcp:host:port')."""
    if addr.startswith("unix:"):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(addr[len("unix:"):])
        return sock
    if addr.startswith("tcp:"):
        host, _, port = addr[len("tcp:"):].rpartition(":")
        if not host or not port.isdigit():
            raise ValueError("tcp address must be tcp:host:port: %r" % addr)
        return socket.create_connection((host, int(port)), timeout=timeout)
    raise ValueError("address must start with unix: or tcp:, got %r" % addr)


class LineChannel:
    """Newline-delimited JSON over a socket."""

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))

    def recv(self, deadline=None):
        """Return the next decoded line, or None on clean EOF."""
        while b"\n" not in self.buf:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("deadline exceeded waiting for a line")
                self.sock.settimeout(min(remaining, 10.0))
            try:
                chunk = self.sock.recv(65536)
            except socket.timeout:
                # Quiet stretch (e.g. a slow 4RM sign-off between sa_iter
                # events) — keep waiting until the overall deadline.
                continue
            if not chunk:
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line.decode("utf-8"))


def one_shot(args, request):
    """Send a single request, print the reply, exit 0 iff ok:true."""
    channel = LineChannel(connect(args.addr, args.timeout))
    channel.send(request)
    reply = channel.recv(deadline=time.monotonic() + args.timeout)
    if reply is None:
        print("error: server closed the connection", file=sys.stderr)
        return 1
    print(json.dumps(reply, indent=2 if args.pretty else None))
    return 0 if reply.get("ok") else 1


def submit_request(args):
    request = {"op": "submit", "kind": args.kind, "case": args.case,
               "objective": args.objective, "seed": args.seed,
               "model": args.model}
    if args.kind == "design":
        request["scale"] = args.scale
    if args.kind == "sweep":
        request["scenarios"] = args.scenarios
    if args.name:
        request["name"] = args.name
    if args.shares:
        request["shares"] = args.shares
    if args.job_timeout > 0:
        request["timeout"] = args.job_timeout
    return request


def metrics_op(args):
    """Fetch the JSON metrics snapshot ({"op":"metrics"}) and validate it."""
    channel = LineChannel(connect(args.addr, args.timeout))
    channel.send({"op": "metrics"})
    reply = channel.recv(deadline=time.monotonic() + args.timeout)
    if reply is None:
        print("error: server closed the connection", file=sys.stderr)
        return 1
    print(json.dumps(reply, indent=2 if args.pretty else None))
    failures = []
    if not reply.get("ok"):
        failures.append("reply is not ok: %r" % reply.get("error"))
    snap = reply.get("metrics")
    if not isinstance(snap, dict):
        failures.append("missing 'metrics' object")
    else:
        for section in ("histograms", "gauges", "counters"):
            if not isinstance(snap.get(section), dict):
                failures.append("metrics.%s is missing" % section)
        for name, hist in snap.get("histograms", {}).items():
            buckets = hist.get("buckets", {})
            if sum(buckets.values()) != hist.get("count"):
                failures.append(
                    "%s: bucket sum %d != count %r" % (
                        name, sum(buckets.values()), hist.get("count")))
    if "counters" not in reply:
        failures.append("missing top-level 'counters'")
    if "manifest" not in reply:
        failures.append("missing 'manifest'")
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    return 1 if failures else 0


def parse_prometheus(text):
    """Parse text exposition format 0.0.4 into (types, samples, errors).

    types:   metric family name -> declared type
    samples: series name -> list of (labels_dict, value) in document order
    """
    types, samples, errors = {}, {}, []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                if parts[2] in types:
                    errors.append("line %d: family %s declared by a second "
                                  "# TYPE line" % (lineno, parts[2]))
                    continue
                types[parts[2]] = parts[3] if len(parts) > 3 else ""
            continue
        brace = line.find("{")
        labels = {}
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                errors.append("line %d: unbalanced braces: %r" % (
                    lineno, line))
                continue
            name = line[:brace]
            for part in line[brace + 1:close].split(","):
                if not part:
                    continue
                key, eq, val = part.partition("=")
                if not eq or len(val) < 2 or val[0] != '"' or val[-1] != '"':
                    errors.append("line %d: bad label %r" % (lineno, part))
                    break
                labels[key] = val[1:-1]
            rest = line[close + 1:].split()
        else:
            fields = line.split()
            name, rest = fields[0], fields[1:]
        if len(rest) not in (1, 2):  # optional trailing timestamp
            errors.append("line %d: expected 'name value': %r" % (
                lineno, line))
            continue
        try:
            value = float(rest[0])
        except ValueError:
            errors.append("line %d: non-numeric value %r" % (
                lineno, rest[0]))
            continue
        samples.setdefault(name, []).append((labels, value))
    return types, samples, errors


def check_histograms(types, samples):
    """Cross-check every declared histogram family; return failure strings."""
    failures = []
    histogram_families = [n for n, t in types.items() if t == "histogram"]
    if not histogram_families:
        failures.append("no histogram families in the exposition")
    for family in histogram_families:
        buckets = samples.get(family + "_bucket", [])
        if not buckets:
            failures.append("%s: no _bucket series" % family)
            continue
        # Buckets arrive in le order; counts must be cumulative and the
        # +Inf bucket must equal _count (text format 0.0.4).
        previous, inf_value = 0.0, None
        for labels, value in buckets:
            le = labels.get("le")
            if le is None:
                failures.append("%s: bucket without le label" % family)
                continue
            if value < previous:
                failures.append(
                    "%s: bucket le=%s count %g < previous %g "
                    "(not cumulative)" % (family, le, value, previous))
            previous = value
            if le == "+Inf":
                inf_value = value
        count = samples.get(family + "_count", [({}, None)])[0][1]
        total = samples.get(family + "_sum", [({}, None)])[0][1]
        if count is None or total is None:
            failures.append("%s: missing _count or _sum" % family)
        elif inf_value is None:
            failures.append("%s: no le=\"+Inf\" bucket" % family)
        elif inf_value != count:
            failures.append("%s: +Inf bucket %g != _count %g" % (
                family, inf_value, count))
        if total is not None and count == 0 and total != 0:
            failures.append("%s: zero count but nonzero _sum %g" % (
                family, total))
    return failures


def scrape(args):
    """HTTP-GET /metrics off the daemon and validate the Prometheus text."""
    sock = connect(args.addr, args.timeout)
    sock.sendall(b"GET /metrics HTTP/1.0\r\nHost: lcn\r\n\r\n")
    raw = b""
    while True:  # HTTP/1.0: the server closes after the body
        chunk = sock.recv(65536)
        if not chunk:
            break
        raw += chunk
    sock.close()
    header, sep, body = raw.partition(b"\r\n\r\n")
    if not sep:
        print("FAIL: no HTTP header/body separator in response",
              file=sys.stderr)
        return 1
    status_line = header.split(b"\r\n", 1)[0].decode("latin-1")
    if " 200 " not in status_line + " ":
        print("FAIL: expected 200, got %r" % status_line, file=sys.stderr)
        return 1
    text = body.decode("utf-8")
    if not args.quiet:
        sys.stdout.write(text)
    types, samples, errors = parse_prometheus(text)
    failures = ["parse: " + e for e in errors]
    failures += check_histograms(types, samples)
    counters = [n for n, t in types.items() if t == "counter"]
    if not counters:
        failures.append("no counter families in the exposition")
    for name in samples:
        if name.endswith("_total") and name not in types:
            failures.append("%s: sample without a # TYPE declaration" % name)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    if not failures:
        print("scrape ok: %d families (%d histograms), %d series, %d samples"
              % (len(types),
                 sum(1 for t in types.values() if t == "histogram"),
                 len(samples),
                 sum(len(v) for v in samples.values())), file=sys.stderr)
    return 1 if failures else 0


def smoke(args):
    """Two concurrent streamed design jobs; verify the full event lifecycle."""
    deadline = time.monotonic() + args.timeout
    channel = LineChannel(connect(args.addr, args.timeout))

    channel.send({"op": "ping"})
    reply = channel.recv(deadline)
    if not (reply and reply.get("ok")):
        print("FAIL: ping got %r" % (reply,), file=sys.stderr)
        return 1
    print("ping ok")

    for seed in (1, 2):
        channel.send({"op": "submit", "kind": "design", "case": args.case,
                      "objective": "p1", "scale": args.scale, "seed": seed,
                      "name": "smoke-%d" % seed, "stream": True})

    # Replies multiplex on the one connection: submit acks from the request
    # handler, events and final results from the runner threads. Ordering
    # between an ack and its job's first event is not guaranteed.
    acked, started, sa_iters, results = set(), set(), {}, {}
    while len(results) < 2:
        line = channel.recv(deadline)
        if line is None:
            print("FAIL: connection closed mid-stream", file=sys.stderr)
            return 1
        if "event" in line:
            job = line.get("job")
            name = line["event"]
            if name == "job_started":
                started.add(job)
            elif name == "sa_iter":
                sa_iters[job] = sa_iters.get(job, 0) + 1
        elif line.get("ok") and line.get("status") == "queued":
            acked.add(line["job"])
            print("submitted job %d" % line["job"])
        elif line.get("ok") and "status" in line:
            results[line["job"]] = line
            print("job %d finished: %s" % (line["job"], line["status"]))
        elif not line.get("ok"):
            print("FAIL: server error: %r" % (line,), file=sys.stderr)
            return 1

    failures = []
    if len(acked) != 2:
        failures.append("expected 2 submit acks, got %r" % sorted(acked))
    for job, result in sorted(results.items()):
        if job not in started:
            failures.append("job %d never emitted job_started" % job)
        if sa_iters.get(job, 0) < 1:
            failures.append("job %d streamed no sa_iter events" % job)
        if result.get("status") != "done":
            failures.append("job %d ended %s (%s)" % (
                job, result.get("status"), result.get("error", "")))
        elif not result.get("feasible"):
            failures.append("job %d reported an infeasible design" % job)
        elif "design_hash" not in result or "manifest" not in result:
            failures.append("job %d result is missing hash/manifest" % job)

    # The two seeds explore different SA trajectories; identical hashes would
    # mean the sessions leaked state into each other.
    hashes = {r.get("design_hash") for r in results.values()
              if r.get("status") == "done"}
    if len(results) == 2 and len(hashes) == 1 and None not in hashes:
        print("note: both seeds converged to the same design (legal, small "
              "schedule)")

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    for job, result in sorted(results.items()):
        print("  job %d: hash %s, W_pump %.3f mW, %d sa_iter events" % (
            job, result["design_hash"], result["w_pump"] * 1e3,
            sa_iters[job]))
    print("smoke ok: 2 streamed design jobs served concurrently")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--addr", default="tcp:127.0.0.1:7733",
                        help="unix:/path or tcp:host:port")
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="overall deadline in seconds")
    parser.add_argument("--pretty", action="store_true",
                        help="indent one-shot replies")
    sub = parser.add_subparsers(dest="command", required=True)

    for op in ("ping", "list", "shutdown", "metrics"):
        sub.add_parser(op)
    for op in ("status", "result", "cancel"):
        p = sub.add_parser(op)
        p.add_argument("--job", type=int, required=True)

    p = sub.add_parser("submit")
    p.add_argument("--kind", choices=("design", "evaluate", "sweep"),
                   default="evaluate")
    p.add_argument("--case", type=int, default=2)
    p.add_argument("--objective", choices=("p1", "p2"), default="p1")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--model", choices=("2rm", "4rm"), default="2rm")
    p.add_argument("--scenarios", type=int, default=32)
    p.add_argument("--name", default="")
    p.add_argument("--shares", type=int, default=0)
    p.add_argument("--job-timeout", type=float, default=0.0,
                   help="server-side deadline for the job")

    p = sub.add_parser("smoke")
    p.add_argument("--case", type=int, default=1)
    p.add_argument("--scale", type=float, default=0.005)

    p = sub.add_parser("scrape")
    p.add_argument("--quiet", action="store_true",
                   help="validate only, do not echo the exposition")

    args = parser.parse_args()
    try:
        if args.command == "smoke":
            return smoke(args)
        if args.command == "metrics":
            return metrics_op(args)
        if args.command == "scrape":
            return scrape(args)
        if args.command == "submit":
            return one_shot(args, submit_request(args))
        request = {"op": args.command}
        if args.command in ("status", "result", "cancel"):
            request["job"] = args.job
        return one_shot(args, request)
    except (OSError, TimeoutError, ValueError, json.JSONDecodeError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
