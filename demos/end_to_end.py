"""From raw files to a results table, the whole pipeline in one script.

Builds a small embedding file and a labeled corpus on disk (two topics
whose word vectors live in different regions of the ball), then runs
the same grid the `gyrotext run` command would.

Run with: python3 demos/end_to_end.py
"""

import tempfile
from pathlib import Path

import numpy as np

from gyrotext.classify import LinearPrimalConfig, SmoConfig
from gyrotext.harness import ExperimentConfig, KnnSpec, emit_table, run_experiment
from gyrotext.kernels import KernelSpec


def write_fixture(root: Path, rng):
    anchors = {"weather": np.array([0.5, 0.0]), "finance": np.array([-0.5, 0.0])}
    vocab = {}
    lines = []
    for topic, anchor in anchors.items():
        vocab[topic] = [f"{topic[0]}{i}" for i in range(20)]
        for tok in vocab[topic]:
            vec = anchor + rng.normal(scale=0.05, size=2)
            lines.append(f"{tok} {float(vec[0])!r} {float(vec[1])!r}")
    emb = root / "vectors.txt"
    emb.write_text("\n".join(lines) + "\n", encoding="utf-8")

    docs = []
    for topic, words in vocab.items():
        for _ in range(40):
            picked = rng.choice(words, size=rng.integers(5, 10))
            docs.append(f"{topic}\t{' '.join(picked)}")
    cor = root / "corpus.tsv"
    cor.write_text("\n".join(docs) + "\n", encoding="utf-8")
    return emb, cor


def main():
    rng = np.random.default_rng(21)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        emb, cor = write_fixture(root, rng)
        print(f"wrote {emb.name} and {cor.name} ({len(cor.read_text().splitlines())} documents)\n")

        config = ExperimentConfig(
            corpus_path=str(cor),
            embeddings_path=str(emb),
            flavor="poincare",
            methods=("emean", "naive", "lcf", "lcb", "lca", "fnw", "bnw"),
            knn=KnnSpec(ks=(3, 5), metric="poincare"),
            svm=SmoConfig(kernel=KernelSpec("geodesic", lam=1.0, q=1.0)),
            linear_svm=LinearPrimalConfig(),
        )
        results = run_experiment(config)

        print(f"{'composition':<12} {'classifier':<12} {'params':<42} accuracy")
        for row in results.rows:
            acc = "NA" if row.accuracy is None else f"{row.accuracy:.3f}"
            print(f"{row.composition:<12} {row.classifier:<12} {row.params:<42} {acc}")

        out = root / "results.csv"
        emit_table(results, "csv", out)
        print(f"\nresults written to CSV; first lines:")
        for line in out.read_text(encoding="utf-8").splitlines()[:4]:
            print(f"  {line}")
        if results.errors:
            print(f"\n{len(results.errors)} cells failed")
        else:
            print("\nall grid cells completed")
    print("\nthe `gyrotext run` command drives exactly this code path from")
    print("the shell; `gyrotext compose` and `gyrotext check-kernel` expose")
    print("the intermediate stages")


if __name__ == "__main__":
    main()
