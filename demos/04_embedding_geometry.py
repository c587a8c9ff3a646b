"""Watch the forgotten samples' embeddings move away from their class.

Unlearning in embedding space is visible as geometry: the cosine
similarity between each forgotten sample and the centroid of its own
class's remaining samples drops, while similarity to the nearest other
class rises. This prints the shift per forgotten-sample class.
"""

import argparse

import numpy as np

import standard
import unlearnlab as ul


def geometry_by_class(params, task: ul.UnlearnTask):
    """Mean own/other-class similarity of forgotten samples, per class."""
    report = ul.embedding_geometry(params, task)
    own, other = {}, {}
    for row in report.rows:
        if row["own_class_similarity"] is None:
            continue
        own.setdefault(row["label"], []).append(row["own_class_similarity"])
        other.setdefault(row["label"], []).append(row["max_other_similarity"])
    classes = sorted(own)
    return (
        report.mean_own_similarity,
        {c: float(np.mean(own[c])) for c in classes},
        {c: float(np.mean(other[c])) for c in classes},
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pipeline = standard.Pipeline(args.seed)
    print(f"training base model (seed {args.seed})...")
    base, _ = pipeline.base

    task = pipeline.sample_task
    unlearned, _ = pipeline.sample_unlearn

    mean_before, own_before, other_before = geometry_by_class(base, task)
    mean_after, own_after, other_after = geometry_by_class(unlearned, task)

    print("\ncosine similarity of forgotten samples to class centroids:")
    print(f"{'class':>5s}  {'own before':>10s}  {'own after':>9s}  "
          f"{'other before':>12s}  {'other after':>11s}")
    for c in sorted(own_before):
        print(f"{c:5d}  {own_before[c]:10.3f}  {own_after[c]:9.3f}  "
              f"{other_before[c]:12.3f}  {other_after[c]:11.3f}")
    print(f"\nmean own-class similarity: {mean_before:.3f} -> {mean_after:.3f}")


if __name__ == "__main__":
    main()
