"""Train the standard desk-scale classifier and report its accuracy.

Generates the four-cluster Gaussian dataset, fits the small embedding
MLP (both as experiments/standard/train.json sets them), and prints
overall and per-class accuracy. Every later demo starts from this same
model.
"""

import argparse

import numpy as np

import standard
import unlearnlab as ul


def per_class_accuracy(params, data: ul.Dataset) -> np.ndarray:
    predicted = ul.predict_labels(params, data.features)
    return np.array(
        [
            float(np.mean(predicted[data.labels == c] == c))
            for c in range(data.num_classes)
        ]
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pipeline = standard.Pipeline(args.seed)
    train_data, test_data = pipeline.train_data, pipeline.test_data
    print(f"dataset: {len(train_data.labels)} train / {len(test_data.labels)} test rows, "
          f"{train_data.num_classes} classes, dim {train_data.features.shape[1]}")

    params, record = pipeline.base
    print(f"trained {record.gradient_steps} steps in {record.duration_seconds:.1f}s "
          f"({record.termination_reason})")

    print(f"\ntrain accuracy: {ul.accuracy(params, train_data):.4f}")
    print(f"test accuracy:  {ul.accuracy(params, test_data):.4f}")
    print("\nper-class test accuracy:")
    for c, acc in enumerate(per_class_accuracy(params, test_data)):
        print(f"  class {c}: {acc:.4f}")


if __name__ == "__main__":
    main()
