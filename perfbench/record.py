"""Record reference.json: the package's outputs on the unlifted inputs.

    python3 perfbench/record.py

Run it once at the commit whose outputs are the contract; a benchmark run
then requires every lifted input to give the same outputs.  Recording
refuses to write a reference that holds an unexpected refusal or failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import ladder

REFERENCE = ladder.ROOT / "perfbench" / "reference.json"


def record_pipelines(w, tr):
    from tropdimer import catalog, kasteleyn

    pipeline, partition = {}, {}
    rungs = {r.name: r for r in ladder.COVER_LADDER + ladder.PARTITION_LADDER}
    for name, rung in rungs.items():
        text = ladder.dump(rung.doc(catalog.catalog_text))
        _, outputs = w.analyse(tr, text)
        for stage, value in outputs.items():
            if isinstance(value, w.Refusal):
                if not w.refusal_expected(rung.base, rung.kx * rung.ky > 1, stage,
                                          value.message):
                    raise SystemExit(f"{name}: unexpected refusal in {stage}: {value.message}")
        pipeline[name] = w.fingerprints(outputs)
        if rung in ladder.PARTITION_LADDER:
            _, outputs = w.partition_function(tr, text, "trivial")
            matchings = kasteleyn.enumerate_matchings(outputs["dimer.build_graph"])
            partition[name] = {"det": outputs["kasteleyn.format"], "matchings": len(matchings)}
        print(f"recorded {name}", flush=True)
    return pipeline, partition


def record_cli(w):
    from tropdimer import catalog

    workdir = ladder.ROOT / ".perfbench_out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    out = {}
    try:
        for pool in w.cli_variants().values():
            for choice in pool:
                if choice.check == "gauge" or choice.key in out:
                    continue
                argv = list(choice.argv)
                if choice.entry is not None:
                    path = workdir / f"{choice.entry}.json"
                    path.write_text(ladder.dump(ladder.load_doc(catalog.catalog_text(choice.entry))))
                    argv = [str(path) if a == "{input}" else a for a in argv]
                proc = w.run_child(["-m", "tropdimer.cli", *argv], 60)
                stdout, stderr = proc.stdout.decode(), proc.stderr.decode()
                message = stderr.removeprefix("error: ").rstrip("\n")
                if proc.returncode != 0 and not (
                    proc.returncode == 1 and w.refusal_expected(
                        choice.entry, False, w.CLI_STAGES.get(choice.sub), message)
                ):
                    raise SystemExit(f"{choice.key}: exit {proc.returncode}: {stderr}")
                entry = {"exit": proc.returncode, "err": stderr, "out": w.digest(stdout)}
                if choice.sub == "kasteleyn":
                    entry["text"] = stdout
                if choice.check == "render":
                    entry["render"] = w.render_shape(stdout)
                out[choice.key] = entry
                print(f"recorded {choice.key} (exit {proc.returncode})", flush=True)
    finally:
        shutil.rmtree(workdir)
    return out


def main():
    ladder.use_source_tree()
    import tracing
    import workloads as w

    pipeline, partition = record_pipelines(w, tracing.Tracer())
    reference = {"pipeline": pipeline, "partition": partition, "cli": record_cli(w)}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    sys.exit(main())
