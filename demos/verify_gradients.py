"""Finite-difference spot checks of the backward pass.

Every primitive op, the 3-step recurrent cell, and (slow, commented out)
the entire micro model. `crmn gradcheck --scope full` runs the last one.
"""

from crmn.gradcheck import check_lstm, check_ops

ops = check_ops()
print(f"scope ops: worst {ops.worst:.2e} over "
      f"{sum(e.checked for e in ops.entries)} partials "
      f"-> {'PASS' if ops.passed else 'FAIL'}")
for entry in ops.entries:
    print(f"   {entry.name:22s} {entry.max_rel_err:.2e} ({entry.checked})")

lstm = check_lstm()
print(f"scope lstm: worst {lstm.worst:.2e} "
      f"-> {'PASS' if lstm.passed else 'FAIL'}")
for entry in lstm.entries:
    print(f"   {entry.name:22s} {entry.max_rel_err:.2e} ({entry.checked})")

# The full sweep walks every parameter of an n=1 model: 51,054 loss
# evaluations, 4 to 32 per call, about 4 s on a 2-core x86_64 VM with one
# BLAS thread.
# Uncomment to run it here.
# from crmn.gradcheck import check_full
# print(check_full().as_json())
