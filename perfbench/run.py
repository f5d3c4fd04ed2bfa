#!/usr/bin/env python3
"""Build and run the VM benchmark.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload suite-jit --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --compare --seed 1 --seconds 20
  python3 perfbench/run.py --self-test
  python3 perfbench/run.py --refresh-refs

The runner builds perfbench/bin/perfbench.exe with dune, collects the
workload's programs, looks up each program's reference output (keyed by
the md5 of its source) in perfbench/refs/ and perfbench/.cache/, produces
any missing one with node, and then runs the benchmark. Reference outputs
always come from node: when one is missing and node is not installed, the
run fails.

The last line of standard output is the benchmark's JSON result.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "_build", "default", "perfbench")
EXE = os.path.join(BUILD, "bin", "perfbench.exe")
SELFTEST = os.path.join(BUILD, "test", "selftest.exe")
REFS = os.path.join(HERE, "refs")
CACHE = os.path.join(HERE, ".cache")
OUT = os.path.join(HERE, ".out")
WORKLOADS = ["suite-jit", "suite-interp", "serve-cold"]
DEFAULT_SEED = 20130223
RUN_TIMEOUT = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("no VM sources next to the benchmark (expected dune-project and lib/ in %s)" % ROOT)
    if shutil.which("dune") is None:
        fail("dune is not installed")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bin/perfbench.exe", "./perfbench/test/selftest.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    if r.returncode != 0:
        fail("build failed")


def read_records(data, header):
    """Parse '<md5> <name> <len>\\n<bytes>\\n' entries after a header line."""
    lines = data.split(b"\n", 1)
    if lines[0].decode() != header:
        raise ValueError("bad record header: %r" % lines[0][:40])
    rest, out = lines[1] if len(lines) > 1 else b"", []
    while rest:
        head, rest = rest.split(b"\n", 1)
        digest, name, n = head.decode().split(" ")
        n = int(n)
        out.append((digest, name, rest[:n]))
        rest = rest[n + 1:]
    return out


def write_records(path, entries):
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(b"vs-refs/1\n")
        for digest, name, body in entries:
            f.write(b"%s %s %d\n" % (digest.encode(), name.encode(), len(body)))
            f.write(body + b"\n")
    os.replace(tmp, path)


def programs(workload, seed):
    r = subprocess.run([EXE, "programs", "--workload", workload, "--seed", str(seed)],
                       stdout=subprocess.PIPE, timeout=120)
    if r.returncode != 0:
        fail("could not list the programs of %s" % workload)
    progs = read_records(r.stdout, "vs-programs/1")
    for digest, name, source in progs:
        if hashlib.md5(source).hexdigest() != digest:
            fail("program digest mismatch for %s" % name)
    return progs


def known_refs():
    refs = {}
    for path in sorted(glob.glob(os.path.join(REFS, "*.ref")) + glob.glob(os.path.join(CACHE, "*.ref"))):
        with open(path, "rb") as f:
            for digest, _name, body in read_records(f.read(), "vs-refs/1"):
                refs[digest] = body
    return refs


def node_outputs(progs):
    """Run the programs under node; never substitutes the VM's own output."""
    node = shutil.which("node")
    if node is None:
        fail("%d programs have no reference output and node is not installed; "
             "references must come from node, not from the VM under test" % len(progs), code=3)
    payload = json.dumps([{"digest": d, "source": s.decode()} for d, _n, s in progs])
    r = subprocess.run([node, os.path.join(HERE, "node_refs.js")], input=payload.encode(),
                       stdout=subprocess.PIPE, timeout=300)
    if r.returncode != 0:
        fail("node failed to produce reference outputs", code=3)
    outs = json.loads(r.stdout)
    return [(d, n, outs[d].encode()) for d, n, _s in progs]


def refs_for(workload, seed):
    """Write the reference file for one run and return its path."""
    progs = programs(workload, seed)
    known = known_refs()
    missing = [p for p in progs if p[0] not in known]
    if missing:
        print("perfbench: producing %d reference outputs with node" % len(missing), file=sys.stderr)
        os.makedirs(CACHE, exist_ok=True)
        fresh = node_outputs(missing)
        write_records(os.path.join(CACHE, "%s-%d.ref" % (workload, seed)), fresh)
        known.update({d: b for d, _n, b in fresh})
    os.makedirs(CACHE, exist_ok=True)
    path = os.path.join(CACHE, "run-%s-%d.run" % (workload, seed))
    write_records(path, [(d, n, known[d]) for d, n, _s in progs])
    return path


def run_program(args, timeout=RUN_TIMEOUT):
    """Run the benchmark program, echoing its output; kills it on timeout."""
    p = subprocess.Popen(args, stdout=subprocess.PIPE)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        p.kill()
        p.wait()
        fail("benchmark timed out after %d s" % timeout, code=4)
    return p.returncode, out.decode()


def expected_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def measure(a):
    if a.workload not in WORKLOADS:
        fail("unknown workload %r (one of %s)" % (a.workload, ", ".join(WORKLOADS)))
    build()
    refs = refs_for(a.workload, a.seed)
    cmd = [EXE, "run", "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--refs", refs]
    if a.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, "spans-%s-%d.json" % (a.workload, a.seed))]
    code, out = run_program(cmd)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail("the benchmark printed no result", code=code or 1)
    if list(result["metrics"]) != expected_names(a.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metric names differ from BENCHMARK.json", code=5)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


def compare(a):
    build()
    code, out = run_program([EXE, "compare", "--seed", str(a.seed), "--seconds", str(a.seconds),
                             "--refs", refs_for("suite-jit", a.seed)], timeout=600)
    sys.stdout.write(out)
    sys.exit(code)


def self_test(_a):
    build()
    r = subprocess.run([SELFTEST, refs_for("suite-jit", DEFAULT_SEED),
                        refs_for("serve-cold", DEFAULT_SEED)], timeout=900)
    sys.exit(r.returncode)


def refresh_refs(_a):
    """Regenerate the committed references with node."""
    build()
    for workload, name in [("suite-jit", "suites.ref"), ("serve-cold", "serve-cold-%d.ref" % DEFAULT_SEED)]:
        progs = programs(workload, DEFAULT_SEED)
        write_records(os.path.join(REFS, name), node_outputs(progs))
        print("wrote %s (%d programs)" % (name, len(progs)))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--compare", action="store_true", help="per-member suite-jit vs suite-interp report")
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's self-tests")
    ap.add_argument("--refresh-refs", action="store_true", help="regenerate perfbench/refs with node")
    a = ap.parse_args()
    if a.compare:
        compare(a)
    elif a.self_test:
        self_test(a)
    elif a.refresh_refs:
        refresh_refs(a)
    elif a.workload:
        measure(a)
    else:
        ap.error("--workload is required")


if __name__ == "__main__":
    main()
