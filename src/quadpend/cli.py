"""Command-line front end: scenario files, batch runs, CSV/JSON emission.

Scenario files are YAML documents with a strict schema, read off the
parameter dataclasses: unknown keys are rejected with the offending key and
line number, and each value must convert to the type of its default.  Exit
codes: 0 success, 2 validation error (a scenario, --jobs below 1, or an
--out that cannot be made a directory), 3 simulation abort (partial log still
written), 4 a run's output files could not be written.
"""

import argparse
import concurrent.futures
import copy
import json
import math
import sys
import unicodedata
from dataclasses import fields, is_dataclass
from importlib import resources
from itertools import chain, repeat
from pathlib import Path

import numpy as np
import yaml

from .controllers import TrackingGains
from .harness import SERIES, NoiseSpec, Scenario, SimLog, run_scenario
from .models import InitialState, PendulumParams, VehicleParams
from .trajectories import TrajectorySpec

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ABORT = 3
EXIT_WRITE = 4
JSON_CHUNK_ROWS = 1024  # rows per json.dumps call when writing a series


class ValidationError(Exception):
    pass


# libyaml's parser, where PyYAML was built with it, reads a scenario file
# several times faster than PyYAML's own.
_FAST_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _parse(read, text):
    """read(text, Loader=...), for read yaml.load or yaml.compose: by libyaml
    where PyYAML has it, else by PyYAML's own parser, which also parses what
    libyaml rejects, so that every result and error is PyYAML's own."""
    try:
        return read(text, Loader=_FAST_LOADER)
    except (yaml.YAMLError, UnicodeEncodeError):
        return read(text, Loader=yaml.SafeLoader)


def _key_lines(raw_text):
    """Dotted key -> line, for each key of the document and of its sections,
    read off the YAML node tree; a repeated key keeps its first line."""
    lines = {}
    for key, value in _parse(yaml.compose, raw_text).value:
        lines.setdefault(key.value, key.start_mark.line + 1)
        if isinstance(value, yaml.MappingNode):
            for sub, _ in value.value:
                lines.setdefault(f"{key.value}.{sub.value}",
                                 sub.start_mark.line + 1)
    return lines


def _check_keys(doc, schema, raw_text, path=""):
    for key, value in doc.items():
        if key not in schema:
            line = _key_lines(raw_text).get(f"{path}{key}")
            where = f" (line {line})" if line else ""
            raise ValidationError(f"unknown key '{path}{key}'{where}")
        sub = schema[key]
        if isinstance(sub, dict):
            if not isinstance(value, dict) and value is not None:
                raise ValidationError(f"key '{path}{key}' must be a mapping")
            _check_keys(value or {}, sub, raw_text, path=f"{path}{key}.")


# YAML section, named after its Scenario field -> (dataclass, {field name:
# YAML key} for the fields whose YAML key differs).  Keys, defaults and value
# types all come from the dataclass fields.
_SECTIONS = {
    "vehicle": (VehicleParams, {
        "m": "mass", "I_diag": "inertia", "D": "rotor_diameter",
        "C_T": "thrust_coeff", "C_Q": "torque_coeff", "l": "arm_length",
        "g": "gravity"}),
    "pendulum": (PendulumParams, {"L": "half_length"}),
    "gains": (TrackingGains, {}),
    "trajectory": (TrajectorySpec, {}),
    "initial": (InitialState, {
        "p": "position", "v": "velocity", "q": "attitude"}),
    "noise": (NoiseSpec, {}),
}
# Top-level keys: the Scenario fields that are not sections.
_SCALARS = tuple(f.name for f in fields(Scenario) if not is_dataclass(f.type))


def scenario_schema() -> dict:
    """Valid keys of a scenario file -> field name, or a section's own keys."""
    schema = {key: key for key in _SCALARS}
    for section, (cls, keys) in _SECTIONS.items():
        schema[section] = {keys.get(f.name, f.name): f.name
                           for f in fields(cls)}
    schema["batch"] = None
    return schema


def _convert(value, like, key):
    """value read as the type of the default value like."""
    if isinstance(like, (bool, int, str)):
        if type(value) is not type(like):
            raise ValidationError(
                f"{key} must be a {type(like).__name__}, got {value!r}")
        return value
    if isinstance(like, float):
        try:
            if isinstance(value, bool):  # float(True) is 1.0
                raise TypeError
            x = float(value)
        except (TypeError, ValueError):
            raise ValidationError(
                f"{key} must be a number, got {value!r}") from None
        if not math.isfinite(x):
            raise ValidationError(f"{key} must be finite, got {value!r}")
        return x
    return _vec(value, len(like), key)


def _vec(value, n, key):
    """n floats from a list of n, or from one number repeated n times."""
    items = value if isinstance(value, (list, tuple)) else [value] * n
    if len(items) != n:
        raise ValidationError(f"{key} must have {n} components")
    return tuple(_convert(v, 0.0, key) for v in items)


def _typed_fields(like, doc, keys, path=""):
    """Field name -> value for each YAML key in doc, typed like the defaults."""
    return {keys[k]: _convert(v, getattr(like, keys[k]), path + k)
            for k, v in doc.items()}


def build_scenario(doc: dict, default_name: str, schema: dict,
                   suffix: str) -> Scenario:
    """Construct a Scenario from a document whose keys were checked against
    schema; suffix ends the run's name."""
    scalars = {k: doc[k] for k in _SCALARS if k in doc}
    kw = {"name": default_name, **_typed_fields(Scenario(), scalars, schema)}
    kw["name"] += suffix
    try:
        for section, (cls, _) in _SECTIONS.items():
            sdoc = doc.get(section)
            if section == "pendulum" and sdoc is None:
                continue  # no pendulum section, or pendulum: null
            kw[section] = cls(**_typed_fields(
                cls(), sdoc or {}, schema[section], f"{section}."))
        return Scenario(**kw)
    except (ValueError, ArithmeticError) as exc:
        raise ValidationError(str(exc)) from exc


def apply_override(doc: dict, dotted: str, value):
    """Apply one --set override (dotted.path=value) before validation."""
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        nxt = node.get(k)
        if not isinstance(nxt, dict):
            nxt = {}
            node[k] = nxt
        node = nxt
    node[keys[-1]] = value


def load_scenarios(path: Path, overrides=(), seed=None):
    """Parse a scenario file into one Scenario per batch entry."""
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read: {exc}") from exc
    try:
        doc = _parse(yaml.load, raw)
    except yaml.YAMLError as exc:
        raise ValidationError(f"cannot parse: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("document must be a mapping")

    batch = doc.pop("batch", None)
    schema = scenario_schema()
    _check_keys(doc, schema, raw)

    variants = [({}, "")]
    if batch is not None:
        if not isinstance(batch, list) or not batch:
            raise ValidationError(
                "batch must be a non-empty list of override entries")
        variants = []
        for i, entry in enumerate(batch):
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("set"), dict)
                    and all(isinstance(k, str) for k in entry["set"])):
                raise ValidationError(
                    f"batch entry {i} must be a mapping with a 'set' mapping "
                    "of dotted string keys")
            suffix = str(entry.get("name", f"b{i}"))
            variants.append((entry["set"], f"-{suffix}"))

    scenarios = []
    for sets, suffix in variants:
        vdoc = copy.deepcopy(doc)
        for dotted, value in sets.items():
            apply_override(vdoc, dotted, value)
        for dotted, value in overrides:
            apply_override(vdoc, dotted, value)
        if seed is not None:
            vdoc["seed"] = seed
        if "batch" in vdoc:
            raise ValidationError(
                "batch can be set only at the top level of the file, not by "
                "--set or in a batch entry")
        _check_keys(vdoc, schema, raw)
        sc = build_scenario(vdoc, path.stem, schema, suffix)
        # The name becomes a file name under --out.
        if any(part in sc.name for part in ("/", "\\", "..")):
            raise ValidationError(
                f"name {sc.name!r} must not contain '/', '\\' or '..'")
        if any(unicodedata.category(ch) in ("Cc", "Cs") for ch in sc.name):
            raise ValidationError(f"name {sc.name!r} must not contain control "
                                  "or surrogate characters")
        # 255 bytes is the longest file name Linux file systems take.
        if len(f"{sc.name}.metrics.json".encode()) > 255:
            raise ValidationError(f"name {sc.name!r} is too long for a file")
        if any(sc.name == other.name for other in scenarios):
            raise ValidationError(f"two runs are named {sc.name!r}")
        scenarios.append(sc)
    return scenarios


def _emitted(log: SimLog):
    """(name, series, values) per emitted series; flags become 0/1 ints."""
    for name, series in SERIES.items():
        a = getattr(log, name)
        if a is not None and series.dtype is bool:
            a = a.astype(int)
        yield name, series, a


def csv_columns(log: SimLog):
    return [c for name, series in SERIES.items()
            if series.blank or getattr(log, name) is not None
            for c in series.columns]


def _csv_cells(log: SimLog):
    """Per CSV series, an iterator over each row's cells: each value's repr."""
    for _, series, a in _emitted(log):
        width = len(series.columns)
        if a is not None:
            yield (map(repr, row.tolist()) for row in a.reshape(len(a), width))
        elif series.blank:
            yield repeat([""] * width)


def _write_json_rows(fh, a):
    """Write json.dumps(a.tolist()), JSON_CHUNK_ROWS rows at a time."""
    fh.write("[")
    for i in range(0, len(a), JSON_CHUNK_ROWS):
        if i:
            fh.write(", ")
        fh.write(json.dumps(a[i:i + JSON_CHUNK_ROWS].tolist())[1:-1])
    fh.write("]")


def emit_log(log: SimLog, fmt: str, out_dir: Path):
    """Write the time series and the metrics file; returns the paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cols = csv_columns(log)

    series_path = out_dir / f"{log.scenario_name}.{fmt}"
    if fmt == "csv":
        with series_path.open("w") as fh:  # row by row, to bound memory
            fh.write(",".join(cols) + "\n")
            for cells in zip(*_csv_cells(log)):
                fh.write(",".join(chain.from_iterable(cells)) + "\n")
    else:  # json.dumps(payload, sort_keys=True), one value at a time
        payload = {"scenario": log.scenario_name, "columns": cols}
        payload.update((name, a) for name, _, a in _emitted(log))
        with series_path.open("w") as fh:
            sep = "{"
            for key in sorted(payload):
                value = payload[key]
                fh.write(f"{sep}{json.dumps(key)}: ")
                if isinstance(value, np.ndarray):
                    _write_json_rows(fh, value)
                else:
                    fh.write(json.dumps(value))
                sep = ", "
            fh.write("}")

    metrics_path = out_dir / f"{log.scenario_name}.metrics.json"
    metrics_path.write_text(
        json.dumps(log.metrics, sort_keys=True, indent=2) + "\n")
    return series_path, metrics_path


def _run_one(args):
    """Run and emit one scenario; returns (exit status, message line)."""
    sc, fmt, out_dir = args
    log = run_scenario(sc)
    try:
        emit_log(log, fmt, Path(out_dir))
    except OSError as exc:
        return EXIT_WRITE, f"{sc.name}: cannot write output: {exc}"
    if log.aborted:
        return EXIT_ABORT, (f"{sc.name}: aborted at t={log.abort_time:.4g} s "
                            f"({log.abort_reason})")
    return EXIT_OK, f"{sc.name}: ok"


def shipped_scenarios():
    """Names of the scenario files bundled with the package."""
    base = resources.files("quadpend") / "scenarios"
    return sorted(p.name for p in base.iterdir() if p.name.endswith(".scn"))


def shipped_scenario_path(name: str) -> Path:
    base = resources.files("quadpend") / "scenarios"
    return Path(str(base / name))


def _parse_set(values):
    out = []
    for item in values or ():
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, _, val = item.partition("=")
        try:
            out.append((key.strip(), _parse(yaml.load, val)))
        except yaml.YAMLError as exc:
            raise ValidationError(f"--set {item!r}: cannot parse the value") from exc
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadpend",
        description="Quadrotor + inverted pendulum scenario simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help=".scn file or shipped scenario name")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="override (repeatable)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for batch sweeps")

    val_p = sub.add_parser("validate", help="validate a scenario file")
    val_p.add_argument("scenario")
    val_p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE")

    sub.add_parser("list-scenarios", help="list shipped scenario files")

    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in shipped_scenarios():
            print(name)
        return EXIT_OK

    path = Path(args.scenario)
    if not path.exists():
        candidate = shipped_scenario_path(path.name)
        if candidate.exists():
            path = candidate
        else:
            print(f"error: scenario file not found: {args.scenario}",
                  file=sys.stderr)
            return EXIT_VALIDATION

    try:
        overrides = _parse_set(args.set)
        seed = getattr(args, "seed", None)
        scenarios = load_scenarios(path, overrides=overrides, seed=seed)
    except ValidationError as exc:
        print(f"error: {path.name}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.command == "validate":
        for sc in scenarios:
            print(f"{sc.name}: ok")
        return EXIT_OK

    if args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}",
              file=sys.stderr)
        return EXIT_VALIDATION
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot use --out {args.out}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    work = [(sc, args.format, args.out) for sc in scenarios]
    jobs = min(args.jobs, len(work))
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, work))
    else:
        results = [_run_one(w) for w in work]

    for code, line in results:
        print(line, file=sys.stderr if code else sys.stdout)
    return max(code for code, _ in results)


if __name__ == "__main__":
    sys.exit(main())
