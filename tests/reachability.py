"""Opt-in (``python -m pytest -p tests.reachability``, the whole suite on CPython
3.11): fail on a ``src/repro`` function-body line no test runs that ``reachability.json``
does not list by its text, on a listed line that now runs, and on a group with no reason;
``REACHABILITY_WRITE=1`` rewrites the ledger, keeping reasons.  Tracing starts on import,
before ``repro`` is.  Forked pool workers (``harness/``) leave by ``os._exit``, skipping
``atexit``: a multiprocessing finalizer, which their ``_bootstrap`` runs, writes their lines
for the parent to merge.  Hypothesis's explain phase would swap in its own tracer and clear
it after, but skips that while one is set (``Tracer.can_trace``)."""
import json, os, shutil, sys, tempfile, threading  # noqa: E401
from collections import Counter
from multiprocessing import util
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src" / "repro")
LEDGER = Path(__file__).with_name("reachability.json")
OUT, seen, report = tempfile.mkdtemp(prefix="reachability-"), set(), []

def _line(frame, event, arg):  # a traced frame's tracer: record, keep tracing
    return (event == "line" and seen.add((frame.f_code.co_filename, frame.f_lineno))) or _line

def _call(frame, event, arg):  # the global tracer: trace only frames under src/repro
    return _line if frame.f_code.co_filename.startswith(SRC) else None

def _unexecuted(path):  # {function: [line text]}; a comprehension joins its function
    text, out = path.read_text(), {}
    todo = [compile(text, str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
        for _, _, n in code.co_lines() if code.co_flags & 0x2 else ():  # CO_NEWLOCALS
            if n and n != code.co_firstlineno and (str(path), n) not in seen:
                out.setdefault(n, code.co_qualname.split(".<locals>.<")[0])
    text, lines = text.splitlines(), sorted(out)
    return {f: [text[n - 1].strip() for n in lines if out[n] == f] for f in map(out.get, lines)}

def pytest_sessionfinish(session):
    sys.settrace(None)
    seen.update(tuple(x) for dump in Path(OUT).iterdir() for x in json.loads(dump.read_text()))
    shutil.rmtree(OUT)
    found = {str(p.relative_to(SRC)): u for p in sorted(Path(SRC).rglob("*.py"))
             if (u := _unexecuted(p))}
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    group = lambda d, m, f: d.get(m, {}).get(f, {})  # noqa: E731
    if os.environ.get("REACHABILITY_WRITE"):
        LEDGER.write_text(json.dumps({m: {f: {"reason": group(old, m, f).get("reason", ""),
            "lines": ls} for f, ls in fs.items()} for m, fs in found.items()}, indent=1) + "\n")
    for m, f in sorted({(m, f) for d in (found, old) for m in d for f in d[m]}):
        now, was = Counter(found.get(m, {}).get(f, [])), Counter(group(old, m, f).get("lines", []))
        report.extend(f"{why} {m} {f}: {t}" for why, d in (("unlisted", now - was),
                      ("now runs", was - now)) for t in d.elements())
        report.extend([f"no reason {m} {f}"] * (not group(old, m, f).get("reason")))
    session.exitstatus = session.exitstatus or int(bool(report))

def pytest_terminal_summary(terminalreporter):
    for line in report or ["reachability: the unexecuted lines match the ledger"]:
        terminalreporter.write_line(line)

sys.settrace(_call), threading.settrace(_call)
util.register_after_fork(util, lambda _: util.Finalize(None, lambda: Path(
    OUT, f"{os.getpid()}.json").write_text(json.dumps(sorted(seen))), exitpriority=0))
