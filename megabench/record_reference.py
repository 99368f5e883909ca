"""Record the reference outputs the benchmark checks each run against.

    python3 megabench/record_reference.py

For every input variant, writes to ``reference.json`` the final
(l_contrast, l_mega) of one ``training.train`` call for each training
workload, and the embedding checksum for ``large-embed``. Record them only
from a commit whose outputs are trusted; the benchmark then holds every
later commit to them.
"""

import json
import sys
import tempfile

import run  # fixes the BLAS thread count before numpy loads


def main():
    if not run.use_sources():
        return 2
    import workloads as w

    table = {name: {} for name in w.WORKLOADS}
    for variant in range(w.N_VARIANTS):
        for data in ("mutag", "large"):
            with tempfile.TemporaryDirectory(prefix=".megabench-",
                                             dir=run.ROOT) as tmp:
                folder, name = w.write_inputs(run.ROOT, data, variant, tmp)
                ds, state = w.load(folder, name, variant)
            for workload, spec in w.WORKLOADS.items():
                if spec["data"] != data:
                    continue
                if spec["mode"] is None:
                    value = w.embed_checksum(w.embed(ds.records, state.phi))
                else:
                    value = list(w.train_once(ds, spec, variant))
                table[workload][str(variant)] = value
        print(f"variant {variant}: "
              + ", ".join(f"{k}={v[str(variant)]}" for k, v in table.items()),
              flush=True)
    w.REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
