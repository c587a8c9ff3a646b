"""Forget 100 random training samples and audit with a membership attack.

A model that has truly forgotten the samples should treat them like any
other unseen point: their accuracy should match test accuracy, and a
membership-inference attack should call them non-members at the same
rate as genuinely held-out data. The gradient-ascent baseline shows why
accuracy alone is not enough; it damages the samples without hiding them.
"""

import argparse

import standard
import unlearnlab as ul


def describe(name: str, params, task: ul.UnlearnTask, seed: int) -> None:
    acc_u = ul.accuracy(params, task.unlearn_train)
    acc_t = ul.accuracy(params, task.test)
    mia = ul.run_mia(params, task, split_seed=seed)
    gap = mia.member_rate_heldout_members - mia.member_rate_unlearn
    print(f"{name:12s}  acc(forgotten) {acc_u:.3f}  acc(test) {acc_t:.3f}  "
          f"member rate {mia.member_rate_unlearn:.3f} vs held-out "
          f"{mia.member_rate_heldout_members:.3f}  (gap {gap:+.3f})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    pipeline = standard.Pipeline(args.seed)

    print(f"training base model (seed {args.seed})...")
    base, _ = pipeline.base

    task = pipeline.sample_task

    print(f"unlearning {len(task.unlearn_train)} samples with each method...\n")
    contrastive, _ = pipeline.sample_unlearn
    neggrad, _ = pipeline.sample_neggrad
    retrained, _ = pipeline.sample_retrain

    describe("base", base, task, args.seed)
    describe("contrastive", contrastive, task, args.seed)
    describe("neggrad", neggrad, task, args.seed)
    describe("retrain", retrained, task, args.seed)

    print("\nA positive gap means the attack sees the forgotten samples as")
    print("less member-like than samples the model still trains on.")


if __name__ == "__main__":
    main()
