"""Exact arithmetic in a rank-2 Picard lattice.

A Fano threefold with Picard rank 2 carries two distinguished divisor
classes H1, H2 (pullbacks of ample generators under the two extremal
contractions).  Everything the classification needs is the trilinear
intersection form on that basis, so this demo builds one by hand and
evaluates a few products.
"""

from fanoenum import DivisorClass, TrilinearForm, anticanonical_class, triple_product

# The form is symmetric, so it is determined by the four cube entries
# H1^3, H1^2.H2, H1.H2^2, H2^3.  These numbers belong to the blowup of
# the quadric threefold Q along a genus-2 curve of degree 6: H1 is the
# pullback of O_Q(1) under the blowdown, H2 the pullback of O(1) under
# the conic-bundle map to P^2 (a fibre class, hence H2^3 = 0).
form = TrilinearForm(2, (2, 4, 2, 0))

H1 = DivisorClass((1, 0))
H2 = DivisorClass((0, 1))

print("H1^3       =", triple_product(form, H1, H1, H1))
print("H1^2 . H2  =", triple_product(form, H1, H1, H2))
print("H1 . H2^2  =", triple_product(form, H1, H2, H2))
print("H2^3       =", triple_product(form, H2, H2, H2))

# The anticanonical class is a fixed integer combination of H1 and H2
# determined by the lengths of the two extremal rays (here 1 and 1).
minus_k = anticanonical_class(1, 1)
print("-K         =", minus_k.coords, "in the (H1, H2) basis")
print("(-K)^3     =", triple_product(form, minus_k, minus_k, minus_k))

# Divisor classes support the usual module operations, and the product
# is linear in each slot, so scaling commutes with evaluation.
D = 3 * H1 - H2
assert triple_product(form, D, D, minus_k) == triple_product(
    form, 3 * H1 - H2, 3 * H1 - H2, H1 + H2
)
print("D = 3H1 - H2 gives D^2 . (-K) =", triple_product(form, D, D, minus_k))

# Relabelling the basis permutes the entries: after the swap the fibre
# class H2 sits in slot 1, so the first cube entry, H2^3, vanishes.
print("after swapping the basis: H1^3 =", triple_product(form, H2, H2, H2),
      " H1^2 . H2 =", triple_product(form, H2, H2, H1))
