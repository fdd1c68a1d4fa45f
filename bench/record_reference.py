"""Record the canary batch's loss and accuracy for the eval workloads.

    python3 bench/record_reference.py

Writes ``bench/reference.json``. The eval workloads compare every visit of
their canary batch with these values, so run this only on a commit whose
eval path is trusted, and commit the file with the reason for the change.
"""

import json
import sys
import tempfile

import run


def main():
    run.pin_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    from workloads import REFERENCE_PATH, EvalCrmn32, EvalResnet32

    reference = {}
    for cls in (EvalCrmn32, EvalResnet32):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            w = cls(0, tmp)
            w.prepare()
            w.setup()
            loss, acc = w.evaluate_canary()
        reference[cls.name] = {"loss": loss, "acc": acc}
        print(cls.name, reference[cls.name])
    REFERENCE_PATH.write_text(json.dumps(reference, indent=2) + "\n")


if __name__ == "__main__":
    main()
