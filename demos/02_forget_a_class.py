"""Remove one class from a trained model and compare against retraining.

Contrastive unlearning pushes the class's embeddings away from where
they used to cluster while a cross-entropy term keeps the remaining
classes intact. The retrained-from-scratch model is the gold standard;
the interesting part is matching its accuracy in a fraction of its time.
"""

import argparse

import standard
import unlearnlab as ul


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pipeline = standard.Pipeline(args.seed)

    print(f"training base model (seed {args.seed})...")
    base, _ = pipeline.base

    # The class and the unlearning settings are experiments/standard/class.json's.
    task = pipeline.class_task
    unlearned, unlearn_record = pipeline.class_unlearn
    print(f"contrastive unlearning: {unlearn_record.termination_reason} after "
          f"{unlearn_record.gradient_steps} steps, {unlearn_record.duration_seconds:.2f}s")

    retrained, retrain_record = pipeline.class_retrain
    print(f"retrain reference: {retrain_record.gradient_steps} steps, "
          f"{retrain_record.duration_seconds:.2f}s")

    views = {
        "forgotten class, test": task.unlearn_test,
        "forgotten class, train": task.unlearn_train,
        "remaining classes, test": task.remain_test,
    }
    print(f"\n{'view':28s}  {'base':>7s}  {'unlearned':>9s}  {'retrained':>9s}")
    for name, view in views.items():
        print(f"{name:28s}  {ul.accuracy(base, view):7.4f}  "
              f"{ul.accuracy(unlearned, view):9.4f}  {ul.accuracy(retrained, view):9.4f}")

    speedup = retrain_record.duration_seconds / unlearn_record.duration_seconds
    print(f"\nwall-clock: unlearning ran {speedup:.0f}x faster than retraining")


if __name__ == "__main__":
    main()
