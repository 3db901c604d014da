"""The three pipeline workloads.

Each workload generates its inputs from the workload seed, then runs README
CLI commands in-process through ``falcon.cli.main`` one pass at a time
(closed loop, one client, one process). A pass returns its work items;
its wall time is the sum of the command times, so the checks between
commands are not timed. Gates run outside the timed commands.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

from falcon import dataset, evalbench, extract, fixtures, polarnet
from falcon.cli import main as falcon_main
from falcon.training import InteractionModel, load_archive

# README train.cfg with a shorter run (see README.md in this directory):
# learning rate 0.05 instead of 0.01 and early stopping off (patience =
# max_epochs), so that every corpus seed trains for the same epochs.
TRAIN_CFG = ("hidden_size = 8\nlearning_rate = 0.05\nmax_epochs = {epochs}\n"
             "batch_size = 16\npatience = {epochs}\nseed = 5\n")


class Cli:
    """Runs one falcon command in-process and times it as ``cli.<command>``
    (wall seconds in ``times``, CPU seconds of the process in ``cpu``)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.cpu: dict[str, float] = {}

    def __call__(self, *args) -> dict:
        args = [str(a) for a in args]
        command = "-".join(itertools.takewhile(lambda a: not a.startswith("-"), args))
        if "--cumulative" in args:  # time the small-graph run apart from the yearly one
            command += "-cumulative"
        buf = io.StringIO()
        span = self.tracer.span(f"cli.{command}") if self.tracer else nullcontext()
        start, cpu = time.perf_counter(), time.process_time()
        with redirect_stdout(buf), span:
            falcon_main.main(args=args, prog_name="falcon", standalone_mode=False)
        self.times[command] = self.times.get(command, 0.0) + time.perf_counter() - start
        self.cpu[command] = self.cpu.get(command, 0.0) + time.process_time() - cpu
        lines = buf.getvalue().strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


def file_digest(*paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def archive_digest(path, prefix: str = "") -> str:
    """SHA-256 over the sorted (name, bytes) of the arrays under ``prefix``,
    read with NumPy alone so that tracing never sees it."""
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as npz:
        for name in sorted(k for k in npz.files
                           if k.startswith(prefix) and k != "__meta__"):
            digest.update(name[len(prefix):].encode())
            digest.update(npz[name].tobytes())
    return digest.hexdigest()


def reference_z(records, attrs, window, n_samples: int, master_seed: int) -> float:
    """Standardized modularity rebuilt from the public null-model API."""
    graph, _ = polarnet.build_graph(records, attrs, time_window=window)
    partition = graph.party_partition()
    q = polarnet.modularity(graph, partition)
    qs = np.array([polarnet.modularity(polarnet.randomize_null(graph, int(s)), partition)
                   for s in polarnet.sample_seeds(master_seed, n_samples)])
    return (q - qs.mean()) / qs.std(ddof=1)


def check_z(root: Path, n_samples: int, seed: int, cumulative: bool,
            n_years: int) -> list[str]:
    """z of ``n_years`` years drawn from ``seed`` against ``reference_z``."""
    rows = json.loads((root / "polarization.json").read_text(encoding="utf-8"))
    records = extract.load_records(root / "typed.jsonl")
    attrs = polarnet.load_node_attrs(root / "attrs.json")
    scored = [row for row in rows if row["z"] is not None]
    if not scored:
        return ["no year was scored"]
    problems = []
    first_year = rows[0]["year"]
    for row in random.Random(seed).sample(scored, min(n_years, len(scored))):
        window = (first_year, row["year"]) if cumulative else (row["year"], row["year"])
        z = reference_z(records, attrs, window, n_samples, seed)
        if not abs(z - row["z"]) <= 1e-9:
            problems.append(f"year {row['year']}: z {row['z']!r} != reference {z!r}")
    return problems


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.first_digest = None

    def setup(self, cli: Cli) -> None:
        raise NotImplementedError

    def run_pass(self, cli: Cli) -> int:
        """Run the pass's commands; return the work items it completed."""
        raise NotImplementedError

    def check_pass(self) -> list[str]:
        """Cheap gates on the outputs of the pass just run."""
        return []

    def check_run(self) -> list[str]:
        """Gates too costly to repeat per pass, on the first pass's outputs."""
        return []

    def same_as_first(self, *paths) -> list[str]:
        digest = file_digest(*paths)
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            return ["outputs differ from the first pass"]
        return []


class Train(Workload):
    name = "train"
    DOCS = 100
    EPOCHS = 5

    def setup(self, cli):
        d = self.root
        cli("fixture", "--out-dir", d, "--docs", self.DOCS, "--seed", self.seed)
        cli("dataset", "split", "--in", d / "labeled.jsonl", "--out", d / "split.jsonl",
            "--seed", 0)
        (d / "train.cfg").write_text(TRAIN_CFG.format(epochs=self.EPOCHS), encoding="utf-8")
        self.examples = dataset.load_examples(d / "split.jsonl")
        self.n_train = sum(1 for ex in self.examples if ex.split == "train")

    def run_pass(self, cli):
        d = self.root
        pre = cli("pretrain-tra", "--config", d / "train.cfg",
                  "--data", d / "trajectories.jsonl", "--out", d / "extractor.ckpt")
        self.frozen_before = archive_digest(d / "extractor.ckpt")
        out = cli("train", "--config", d / "train.cfg", "--data", d / "split.jsonl",
                  "--out", d / "model.ckpt", "--frozen", d / "extractor.ckpt")
        return pre["epochs"] * pre["examples"] + out["epochs"] * self.n_train

    def check_pass(self):
        d = self.root
        problems = []
        after = archive_digest(d / "extractor.ckpt")
        embedded = archive_digest(d / "model.ckpt", prefix="frozen.")
        if not self.frozen_before == after == embedded:
            problems.append("frozen extractor parameters changed during train")
        # Accuracy above the majority class on val (about 25 examples) and
        # test (about 50) is not a gate: a correct program misses it at a
        # few seeds in a hundred (see README.md). A correct trainer always
        # lowers its loss, and a correct checkpoint scores every example.
        for path in (d / "extractor.ckpt", d / "model.ckpt"):
            history = load_archive(path)[1]["history"]
            if not history[-1]["loss"] < history[0]["loss"]:
                problems.append(f"{path.name}: training loss did not fall "
                                f"({history[0]['loss']!r} -> {history[-1]['loss']!r})")
        model = InteractionModel.load(d / "model.ckpt")
        for split in ("val", "test"):
            subset = [ex for ex in self.examples if ex.split == split]
            report = evalbench.evaluate_transfer(model, subset)
            if report.total != len(subset):
                problems.append(f"{split}: {len(subset)} examples, {report.total} scored")
        return problems


class Extract(Workload):
    name = "extract"
    DOCS = 400
    CKPT_DOCS = 50
    CKPT_EPOCHS = 3

    def setup(self, cli):
        d = self.root
        cli("fixture", "--out-dir", d / "corpus", "--docs", self.DOCS, "--seed", self.seed)
        m = d / "model"
        cli("fixture", "--out-dir", m, "--docs", self.CKPT_DOCS, "--seed", self.seed)
        cli("dataset", "split", "--in", m / "labeled.jsonl", "--out", m / "split.jsonl",
            "--seed", 0)
        (m / "train.cfg").write_text(TRAIN_CFG.format(epochs=self.CKPT_EPOCHS),
                                     encoding="utf-8")
        cli("pretrain-tra", "--config", m / "train.cfg", "--data", m / "trajectories.jsonl",
            "--out", m / "extractor.ckpt")
        cli("train", "--config", m / "train.cfg", "--data", m / "split.jsonl",
            "--out", m / "model.ckpt", "--frozen", m / "extractor.ckpt")

    def _outputs(self):
        d = self.root
        return d / "records.jsonl", d / "summary.json", d / "typed.jsonl"

    def run_pass(self, cli):
        d = self.root
        records, summary, typed = self._outputs()
        for path in (records, summary, typed, d / "state.json"):
            path.unlink(missing_ok=True)
        c = d / "corpus"
        out = cli("extract", "--triples", c / "triples.jsonl",
                  "--checkpoint", d / "model" / "model.ckpt", "--out", records,
                  "--summary", summary, "--gazetteer", c / "gazetteer.json",
                  "--state", d / "state.json")
        cli("classify-type", "--records", records,
            "--llm", f"fixture:{c / 'llm_responses.json'}", "--out", typed)
        return out["candidates"] - out["skipped"]

    def check_pass(self):
        records, summary_path, typed = self._outputs()
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        problems = []
        parsed = {}
        for path in (records, typed):
            try:
                parsed[path] = [extract.InteractionRecord.from_json(json.loads(line))
                                for line in path.read_text(encoding="utf-8").splitlines()]
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{path.name}: unparseable record ({exc})")
                return problems
        if summary["positives"] != len(parsed[records]):
            problems.append(f"summary positives {summary['positives']} != "
                            f"{len(parsed[records])} records written")
        if summary["candidates"] != (summary["positives"] + summary["negatives"]
                                     + summary["skipped"]):
            problems.append("summary candidates != positives + negatives + skipped")
        if len(parsed[typed]) != len(parsed[records]):
            problems.append("classify-type changed the number of records")
        if any(r.interaction_type is None and r.type_flag != "unclassified"
               for r in parsed[typed]):
            problems.append("a typed record has neither a type nor a flag")
        return problems + self.same_as_first(records, summary_path, typed)


class Network(Workload):
    """Both uses of the null model: many small samples (cumulative years of
    the 20-person records fixture) and a few large ones (yearly graphs of a
    generated 1,200-person record set), plus stats, export, trends and
    distance on the large set.

    The small records are the fixture at its own fixed seed; the workload
    seed drives their null-model seeds. The cumulative graphs are dense
    (up to about 105 of 190 possible edges), so the swap attempts a sample
    needs depend on which pairs the fixture drew: with the fixture seed
    following the workload seed, the cumulative run took 8.8 to 24.1
    reference-loop times over ten seeds, against 10.1 to 13.4 with the
    fixture seed fixed."""

    name = "network"
    SMALL_SAMPLES = 20
    PEOPLE = 1200
    YEARS = (2001, 2002, 2003, 2004)
    PER_YEAR = 1000
    N_SAMPLES = 6
    SMALL_CHECK_YEARS = 2
    CHECK_YEARS = 1

    def setup(self, cli):
        records, attrs = fixtures.political_records_fixture()
        (self.root / "small").mkdir()
        write_records(self.root / "small", records, attrs)
        records, attrs = network_records(self.seed, self.PEOPLE, self.YEARS, self.PER_YEAR)
        write_records(self.root, records, attrs)
        # every member has a party, so each distinct pair is one edge
        self.edges = len({(r.person1, r.person2) for r in records})

    def _outputs(self):
        d = self.root
        return [d / name for name in ("small/polarization.csv", "small/polarization.json",
                                      "polarization.csv", "polarization.json", "stats.json",
                                      "edges.csv", "graph.gexf", "trends.csv",
                                      "distance.csv")]

    def run_pass(self, cli):
        s = self.root / "small"
        small = cli("analyze", "polarization", "--records", s / "typed.jsonl",
                    "--attrs", s / "attrs.json", "--null-samples", self.SMALL_SAMPLES,
                    "--seed", self.seed, "--cumulative", "--out-csv", s / "polarization.csv",
                    "--out-json", s / "polarization.json")
        d = self.root
        common = ("--records", d / "typed.jsonl", "--attrs", d / "attrs.json")
        out = cli("analyze", "polarization", *common, "--null-samples", self.N_SAMPLES,
                  "--seed", self.seed, "--out-csv", d / "polarization.csv",
                  "--out-json", d / "polarization.json")
        self.stats = cli("analyze", "stats", *common, "--out-json", d / "stats.json")
        cli("analyze", "export", *common, "--out-edges", d / "edges.csv",
            "--out-gexf", d / "graph.gexf")
        cli("analyze", "trends", *common, "--bin", "year", "--out-csv", d / "trends.csv")
        cli("analyze", "distance", *common, "--out-csv", d / "distance.csv")
        return small["scored"] * self.SMALL_SAMPLES + out["scored"] * self.N_SAMPLES

    def check_pass(self):
        problems = []
        if self.stats["edges"] != self.edges:
            problems.append(f"stats reports {self.stats['edges']} edges, "
                            f"the records hold {self.edges} distinct pairs")
        edge_lines = (self.root / "edges.csv").read_text(encoding="utf-8").count("\n") - 1
        if edge_lines != self.edges:
            problems.append(f"export wrote {edge_lines} edges, expected {self.edges}")
        return problems + self.same_as_first(*self._outputs())

    def check_run(self):
        return (check_z(self.root / "small", self.SMALL_SAMPLES, self.seed, True,
                        self.SMALL_CHECK_YEARS)
                + check_z(self.root, self.N_SAMPLES, self.seed, False, self.CHECK_YEARS))


def write_records(root: Path, records, attrs: dict) -> None:
    extract.dump_records(records, root / "typed.jsonl")
    by_name = {v["name"]: {k: x for k, x in v.items() if k != "name"}
               for v in attrs.values()}
    (root / "attrs.json").write_text(json.dumps(by_name, indent=2, sort_keys=True),
                                     encoding="utf-8")


def network_records(seed: int, people: int, years, per_year: int):
    """Typed records over ``people`` members of two parties.

    Same-party pairs lean cooperative and cross-party pairs adversarial, so
    the party partition carries signal. Sizes are fixed; only identities,
    places and types depend on the seed.
    """
    rng = random.Random(seed)
    places = [(f"Town {i:02d}", round(rng.uniform(25.0, 48.0), 4),
               round(rng.uniform(-123.0, -70.0), 4), f"State {i % 12:02d}")
              for i in range(40)]
    attrs = {}
    names = []
    for i in range(people):
        name = f"Member {i:04d}"
        _, lat, lon, state = places[rng.randrange(len(places))]
        attrs[polarnet.normalize_surface(name)] = {
            "name": name, "party": "Republican" if i % 2 == 0 else "Democrat",
            "birthplace": [lat, lon], "state": state, "profession": "Politics & Law"}
        names.append(name)
    records = []
    for year in years:
        for _ in range(per_year):
            a, b = rng.sample(range(people), 2)
            if a % 2 == b % 2:
                itype = rng.choices(("Cooperative", "Neutral", "Adversarial"),
                                    weights=(0.6, 0.3, 0.1))[0]
            else:
                itype = rng.choices(("Adversarial", "Neutral", "Cooperative"),
                                    weights=(0.5, 0.3, 0.2))[0]
            place, lat, lon, state = places[rng.randrange(len(places))]
            p1, p2 = sorted((names[a], names[b]))
            records.append(extract.InteractionRecord(
                record_id=f"net{len(records):06d}", doc_id="network",
                segment_id="network:s0", char_start=0, char_end=1, person1=p1,
                person2=p2, time_surface=str(year), time_year=year, location=place,
                score=0.9, lat=lat, lon=lon, state=state, interaction_type=itype))
    return records, attrs


WORKLOADS = {w.name: w for w in (Train, Extract, Network)}
