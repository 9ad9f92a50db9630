"""The benchmark's workloads: their job lists, the seeded job generator and the
job runner.

A job is a plain dict that the program under test sees only through its
public entry points:

* ``{"via": "run", "job": {...}}`` goes through ``gln_modp.cli.run``;
* ``{"via": "main", "argv": [...]}`` goes through ``gln_modp.cli.main``;
* ``{"via": "multiply", ...}`` calls ``gln_modp.hecke.multiply`` directly,
  because the CLI exposes no Hecke multiplication.

Every job carries an ``id`` (a digest of its canonical JSON) and a ``kind``.
The expected exit code and output digest of each job are checked in under
``expected/`` and were produced by ``expect.py`` from the code at the commit
that defined the benchmark.

``algebra_session`` draws its stream from a fixed pool: the pool is built
from ``POOL_SEED`` and never changes, so one checked-in expectation file
covers every workload seed.  The workload seed picks, within every stratum
(job kind, rank, field), which pool jobs run and in what order.  Fixed
per-stratum counts keep the amount of work nearly the same for every seed.

This module imports nothing from the program at import time; ``execute``
imports it on first use.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

WORKLOADS = ("oracle_gates", "hecke0_derive", "algebra_session")

POOL_SEED = 20100511
COWEIGHT_BOX = 6          # antidominant coweights have entries in [-6, 6]
F3 = {"p": 3}
F9 = {"p": 3, "m": 2}

# Jobs drawn per pass from each stratum.  Each stratum's pool holds a third
# more jobs than are drawn, so seeds share most of their work.
SESSION_MIX = (            # per (n, field) stratum, n = 2..5, q = 3, 9
    ("satake_T", 75),
    ("satake_tau", 25),
    ("multiply", 12),
    ("eigen", 50),
    ("weights", 38),
)
CLASSIFY_DRAWN = (34,) * 6                 # per delta 0..5 (delta 5 needs n = 6)
LATTICE_DRAWN = (20,) * 5                  # per delta 0..4
MALFORMED_ROUNDS = 6                       # per malformed template


def _pool_size(drawn: int) -> int:
    return drawn + drawn // 3


def job_id(spec: dict) -> str:
    body = {k: v for k, v in spec.items() if k not in ("id", "kind")}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _job(kind: str, **spec) -> dict:
    spec["kind"] = kind
    spec["id"] = job_id(spec)
    return spec


# -- fixed workloads -----------------------------------------------------------

def oracle_gates_jobs():
    return [_job("verify", via="run",
                 job={"command": "verify", "params": {"max_n": 3, "max_q": 2}}),
            _job("verify", via="run",
                 job={"command": "verify", "params": {"max_n": 2, "max_q": 5}})]


def hecke0_derive_jobs():
    jobs = [_job("hecke0_derive", via="run", job={
        "command": "hecke0", "scalar_field": F3,
        "params": {"action": "derive", "n": n}}) for n in (2, 3, 4)]
    jobs += [_job("hecke0_verify", via="run", job={
        "command": "hecke0", "scalar_field": F3,
        "params": {"action": "verify", "n": n}}) for n in (2, 3, 4, 5)]
    return jobs


# -- algebra_session generator -------------------------------------------------

def _vec(v) -> str:
    return ",".join(str(x) for x in v)


def _composition(rng, n):
    """A uniformly random composition of n (a standard Levi)."""
    comp, size = [], 1
    for _ in range(n - 1):
        if rng.random() < 0.5:
            comp.append(size)
            size = 1
        else:
            size += 1
    comp.append(size)
    return comp


def _boundaries(comp):
    out, acc = [], 0
    for c in comp[:-1]:
        acc += c
        out.append(acc)
    return out


def _weight(rng, n, q, comp=None):
    """A canonical q-restricted dominant weight whose stabilizer Levi is
    ``comp`` (random when None): pairing 0 inside blocks, in [1, q-1] at
    the block boundaries, last entry in [0, q-2]."""
    comp = comp or _composition(rng, n)
    bd = set(_boundaries(comp))
    nu = [rng.randrange(q - 1)]
    for i in range(n - 1, 0, -1):
        nu.append(nu[-1] + (rng.randrange(1, q) if i in bd else 0))
    return list(reversed(nu))


def _coweight(rng, n, box=COWEIGHT_BOX):
    """An antidominant coweight with entries in [-box, box], spread uniform."""
    spread = rng.randrange(2 * box + 1)
    lo = rng.randrange(-box, box - spread + 1)
    inner = sorted(rng.randrange(lo, lo + spread + 1) for _ in range(n - 2))
    return [lo] + inner + [lo + spread]


def _scalar(rng, fspec):
    """A nonzero field element as its coefficient vector."""
    p, m = fspec["p"], fspec.get("m", 1)
    while True:
        coeffs = [rng.randrange(p) for _ in range(m)]
        if any(coeffs):
            return _vec(coeffs)


def _field_entry(rng, fspec):
    """How the job names its scalar field: F_3 jobs sometimes rely on the
    default field derived from q."""
    if fspec.get("m", 1) == 1 and rng.random() < 0.5:
        return None
    return fspec


def _char(rng, fspec, q, tame=None):
    return {"unramified": _scalar(rng, fspec),
            "tame": rng.randrange(q - 1) if tame is None else tame}


def _tame_exponents(nu, comp, q):
    """Central character exponents of nu restricted to the Levi comp."""
    out, start = [], 0
    for c in comp:
        out.append(sum(nu[start:start + c]) % (q - 1))
        start += c
    return out


def _pair(rng, fspec, q, comp, nu=None):
    tames = _tame_exponents(nu, comp, q) if nu is not None else [None] * len(comp)
    return {"M": comp, "chars": [_char(rng, fspec, q, t) for t in tames]}


def _as_cli(rng, kind, command, params, fspec, action=None, *, flags):
    """Wrap params as a cli.run job, or (a third of the time) as argv for
    cli.main with the listed params turned into flags."""
    field = _field_entry(rng, fspec)
    if rng.random() < 1 / 3:
        argv = [command] + ([action] if action else [])
        for key in flags:
            if key not in params:
                continue
            value = params[key]
            if value is True:
                argv.append(f"--{key}")
                continue
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            argv += [f"--{key}", str(value)]
        if field is not None:
            argv += ["--field", _vec([field["p"], field.get("m", 1)])]
        return _job(kind, via="main", argv=argv)
    job = {"command": command,
           "params": dict(params, **({"action": action} if action else {}))}
    if field is not None:
        job["scalar_field"] = field
    return _job(kind, via="run", job=job)


def _satake(rng, n, fspec, q, basis):
    params = {"n": n, "q": q, "nu": _vec(_weight(rng, n, q)),
              "lam": _vec(_coweight(rng, n)), "basis": basis}
    return _as_cli(rng, f"satake_{basis}", "satake", params, fspec,
                   flags=("n", "q", "nu", "lam", "basis"))


def _multiply(rng, n, fspec, q):
    def element():
        terms = {}
        for _ in range(rng.randrange(1, 3)):
            terms[_vec(_coweight(rng, n, COWEIGHT_BOX // 2))] = _scalar(rng, fspec)
        return {"basis": rng.choice(("T", "tau")),
                "terms": [[k, v] for k, v in sorted(terms.items())]}
    return _job("multiply", via="multiply", field=fspec, q=q,
                nu=_weight(rng, n, q), a=element(), b=element())


def _eigen(rng, n, fspec, q):
    action = rng.choice(("eval-tau", "eval-T", "supersingular", "factors",
                         "twist", "applicable"))
    comp = _composition(rng, n)
    params = {"q": q}
    if action == "eval-tau":
        params["pair"] = _pair(rng, fspec, q, comp)
        params["lam"] = _vec(_coweight(rng, n))
    elif action == "eval-T":
        nu = _weight(rng, n, q)
        params["pair"] = _pair(rng, fspec, q, comp, nu)
        params["nu"] = _vec(nu)
        params["lam"] = _vec(_coweight(rng, n))
    elif action in ("supersingular", "factors", "twist"):
        params["pair"] = _pair(rng, fspec, q, comp)
        if action == "factors":
            params["L"] = _vec(_composition(rng, n))
        if action == "twist":
            params["eta"] = _char(rng, fspec, q)
    else:
        # the weight-change test needs alpha_i outside the Levi and <nu, alpha_i> = 0
        while len(comp) == 1:
            comp = _composition(rng, n)
        i = rng.choice(_boundaries(comp))
        wcomp = [1] * n
        wcomp[i - 1:i + 1] = [2]
        nu = _weight(rng, n, q, wcomp)
        params.update(pair=_pair(rng, fspec, q, comp), nu=_vec(nu), i=i)
    return _as_cli(rng, "eigen", "eigen", params, fspec, action,
                   flags=("q", "pair", "lam", "nu", "i", "L", "eta"))


def _levi_weight(rng, comp, q):
    nu = []
    for c in comp:
        block = [rng.randrange(q - 1)]
        for _ in range(c - 1):
            block.append(block[-1] + rng.randrange(q))
        nu += reversed(block)
    return nu


def _weights(rng, n, fspec, q):
    action = rng.choice(("restrict", "cover", "partner", "regular"))
    params = {"q": q}
    if action == "restrict":
        params.update(nu=_vec(_weight(rng, n, q)), P=_vec(_composition(rng, n)))
    elif action == "cover":
        comp = _composition(rng, n)
        params.update(M=_vec(comp), nu=_vec(_levi_weight(rng, comp, q)))
    elif action == "partner":
        i = rng.randrange(1, n)
        wcomp = [1] * n
        wcomp[i - 1:i + 1] = [2]
        params.update(nu=_vec(_weight(rng, n, q, wcomp)), i=i)
    else:
        params.update(nu=_vec(_weight(rng, n, q)), M=_vec(_composition(rng, n)))
    return _as_cli(rng, "weights", "weights", params, fspec, action,
                   flags=("q", "nu", "P", "M", "i"))


def _datum(rng, fspec, q, delta):
    """An induction datum with exactly ``delta`` adjacent equal-twist
    Steinberg pairs: a run of delta+1 singleton Steinberg blocks sharing a
    twist, with distinct-twist or supersingular blocks around it."""
    def steinberg(size, eta):
        return {"kind": "steinberg", "size": size, "Q": _composition(rng, size),
                "eta": eta}
    shared = _char(rng, fspec, q)
    blocks = [steinberg(1, shared) for _ in range(delta + 1)]
    if delta < 2 and rng.random() < 0.6:
        # a neighbour that breaks the run: supersingular or a different twist
        if rng.random() < 0.5:
            blk = {"kind": "supersingular", "size": 2, "label": rng.choice("abc"),
                   "central": _char(rng, fspec, q)}
        else:
            other = shared
            while other == shared:
                other = _char(rng, fspec, q)
            blk = steinberg(rng.randrange(1, 3), other)
        blocks.insert(rng.randrange(len(blocks) + 1), blk)
    return {"P": [b["size"] for b in blocks], "blocks": blocks}


def _classify(rng, fspec, q, delta):
    action = rng.choice(("constituents", "constituents", "validate", "pair"))
    params = {"q": q, "datum": _datum(rng, fspec, q, delta)}
    return _as_cli(rng, "classify", "classify", params, fspec, action,
                   flags=("q", "datum"))


def _lattice(rng, fspec, q, delta):
    params = {"q": q, "datum": _datum(rng, fspec, q, delta)}
    if rng.random() < 0.5:
        params["dot"] = True
    return _as_cli(rng, "lattice", "lattice", params, fspec, flags=("q", "datum", "dot"))


def _malformed(rng):
    """One job per malformed-input template.  The first three are the CLI
    crashers known at the commit that defined the benchmark."""
    n = rng.randrange(2, 6)
    q = rng.choice((3, 9))
    nu, lam = _vec(_weight(rng, n, q)), _vec(_coweight(rng, n))
    pair = _pair(rng, F3, 3, _composition(rng, n))
    return [
        _job("malformed.field_text", via="main",
             argv=["satake", "--n", str(n), "--q", str(q), "--nu", nu, "--lam", lam,
                   "--field", rng.choice(("x", "3,y", "p"))]),
        _job("malformed.pair_list", via="main",
             argv=["eigen", "supersingular", "--q", "3",
                   "--pair", json.dumps([rng.randrange(1, 4)])]),
        _job("malformed.n_list", via="run", job={
            "command": "satake", "params": {"n": [n], "q": q, "nu": nu, "lam": lam}}),
        _job("malformed.n_null", via="run", job={
            "command": "hecke0", "params": {"action": "verify", "n": None}}),
        _job("malformed.unknown_command", via="run", job={
            "command": rng.choice(("satak", "verfy", "")), "params": {}}),
        _job("malformed.missing_param", via="run", job={
            "command": "satake", "params": {"n": n, "q": q, "nu": nu}}),
        _job("malformed.bad_vector", via="run", job={
            "command": "satake", "params": {"n": n, "q": q, "nu": nu, "lam": lam + ",z"}}),
        _job("malformed.wrong_rank", via="run", job={
            "command": "satake", "params": {"n": n + 1, "q": q, "nu": nu, "lam": lam}}),
        _job("malformed.job_not_object", via="run", job=[n, q]),
        _job("malformed.params_not_object", via="run", job={
            "command": "weights", "params": [nu]}),
        _job("malformed.bad_field", via="run", job={
            "command": "satake", "scalar_field": {"p": rng.choice((4, 6, 8))},
            "params": {"n": n, "q": q, "nu": nu, "lam": lam}}),
        _job("malformed.q_not_prime_power", via="run", job={
            "command": "weights", "params": {"action": "regular", "q": rng.choice((6, 10, 12)),
                                             "nu": nu, "M": _vec([n])}}),
        _job("malformed.bad_choice", via="main",
             argv=["weights", rng.choice(("shift", "lift")), "--q", str(q), "--nu", nu]),
        _job("malformed.pair_chars_int", via="run", job={
            "command": "eigen", "params": {"action": "supersingular", "q": 3,
                                           "pair": {"M": pair["M"], "chars": 1}}}),
        _job("malformed.datum_bad_kind", via="run", job={
            "command": "classify", "params": {"q": 3, "datum": {
                "P": [n], "blocks": [{"kind": "cuspidal", "size": n}]}}}),
        _job("malformed.bad_json_flag", via="main",
             argv=["classify", "--q", "3", "--datum", "{P:"]),
    ]


def session_pool():
    """Every job algebra_session can draw, by stratum, with the number of
    jobs a pass draws from each stratum."""
    rng = random.Random(POOL_SEED)
    makers = {"satake_T": lambda r, n, f, q: _satake(r, n, f, q, "T"),
              "satake_tau": lambda r, n, f, q: _satake(r, n, f, q, "tau"),
              "multiply": _multiply, "eigen": _eigen, "weights": _weights}
    strata = {}
    for kind, drawn in SESSION_MIX:
        for n in (2, 3, 4, 5):
            for fspec, q in ((F3, 3), (F9, 9)):
                strata[(kind, n, q)] = (drawn, [makers[kind](rng, n, fspec, q)
                                                for _ in range(_pool_size(drawn))])
    for kind, make, draws in (("classify", _classify, CLASSIFY_DRAWN),
                              ("lattice", _lattice, LATTICE_DRAWN)):
        for delta, drawn in enumerate(draws):
            strata[(kind, delta)] = (drawn, [
                make(rng, *((F3, 3) if j % 2 else (F9, 9)), delta)
                for j in range(_pool_size(drawn))])
    for _ in range(_pool_size(MALFORMED_ROUNDS)):
        for job in _malformed(rng):
            strata.setdefault(("malformed", job["kind"]), (MALFORMED_ROUNDS, []))[1].append(job)
    return strata


def algebra_session_jobs(seed: int):
    """The seeded job stream: a fixed number of jobs from each stratum,
    chosen and ordered by ``seed``.  Every malformed template is its own
    stratum, so the known crashers run in every pass."""
    rng = random.Random(seed)
    jobs = []
    for drawn, pool in session_pool().values():
        jobs += rng.sample(pool, drawn)
    rng.shuffle(jobs)
    return jobs


def all_session_jobs():
    return [job for _, pool in session_pool().values() for job in pool]


def jobs_for(workload: str, seed: int):
    """The jobs of one pass.  Only algebra_session depends on the seed."""
    if workload == "algebra_session":
        return algebra_session_jobs(seed)
    if workload == "oracle_gates":
        return oracle_gates_jobs()
    if workload == "hecke0_derive":
        return hecke0_derive_jobs()
    raise ValueError(f"unknown workload {workload!r}")


# -- running a job ---------------------------------------------------------------

def execute(job):
    """Run one job; returns (exit code, output text).  Exceptions other than
    SystemExit propagate: a job that raises has failed."""
    if job["via"] == "run":
        from gln_modp import cli
        out = io.StringIO()
        return cli.run(job["job"], out), out.getvalue()
    if job["via"] == "main":
        from gln_modp import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:
                code = exc.code
        text = out.getvalue()
        if err.getvalue():
            text += "\x00" + err.getvalue()
        return code, text
    if job["via"] == "multiply":
        from gln_modp.finite_field import FqField
        from gln_modp.hecke import HeckeElement, multiply
        from gln_modp.weights import make_weight
        field = FqField(job["field"]["p"], job["field"].get("m", 1))
        V = make_weight(tuple(job["nu"]), job["q"])

        def element(spec):
            terms = {tuple(int(t) for t in k.split(",")): field.parse(c)
                     for k, c in spec["terms"]}
            return HeckeElement(V, spec["basis"], terms, field)

        res = multiply(element(job["a"]), element(job["b"]))
        return 0, json.dumps({"basis": res.basis, "terms": {
            _vec(k): str(c) for k, c in res.terms.items()}}, sort_keys=True)
    raise ValueError(f"unknown job route {job['via']!r}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def is_schema_error(text: str) -> bool:
    """The output malformed input must produce: schema-error JSON."""
    try:
        obj = json.loads(text)
    except ValueError:
        return False
    return isinstance(obj, dict) and obj.get("error", {}).get("kind") == "schema"


def check(job, expected, code, text, raised):
    """None when the job met its expectation, else the reason it failed."""
    exp = expected.get(job["id"])
    if exp is None:
        return "no expectation"
    if raised is not None:
        return f"raised {raised}"
    if code != exp["exit"]:
        return f"exit {code} != {exp['exit']}"
    if exp["sha256"] is None:
        return None if is_schema_error(text) else "not schema-error JSON"
    if digest(text) != exp["sha256"]:
        return "output differs"
    return None
