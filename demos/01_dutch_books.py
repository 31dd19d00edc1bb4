# Betting books on a finite outcome space: payoffs, coherence, sure-loss
# detection.  Run with:  python demos/01_dutch_books.py

from fractions import Fraction as F

from qdutch import (
    Book,
    ConditionalBet,
    OutcomeSpace,
    average_payoff,
    average_payoff_product_joint,
    check_axioms,
    find_dutch_book,
    payoff,
)

# A weather market with three mutually exclusive outcomes.
space = OutcomeSpace(["rain", "snow", "sun"])
rain, snow, sun = (space.atom(name) for name in space.atoms)
wet = rain | snow

print("== a coherent book ==")
# Quotients consistent with the belief state (1/2, 1/6, 1/3).
belief = [F(1, 2), F(1, 6), F(1, 3)]
book = Book(
    space,
    [
        ConditionalBet.outright(rain, F(1, 2)),
        ConditionalBet.outright(wet, F(2, 3)),
        # a conditional bet: rain given that it is wet
        ConditionalBet(rain, wet, F(3, 4), stake=F(2)),
    ],
)
for atom in space.atoms:
    print(f"  payoff if {atom:4s} = {payoff(book, atom)}")
print(f"  sure-loss stakes exist? {find_dutch_book(book) is not None}")
print(f"  average payoff under the belief state: {average_payoff(book, belief)}")
print(f"  ... and with independent bet outcomes:  {average_payoff_product_joint(book, belief)}")

print("\n== an overround book is Dutch-bookable ==")
bad = Book(
    space,
    [
        ConditionalBet.outright(rain, F(3, 5)),
        ConditionalBet.outright(snow, F(3, 10)),
        ConditionalBet.outright(sun, F(1, 5)),  # quotients sum to 11/10
    ],
)
stakes = find_dutch_book(bad)
print(f"  stakes forcing a sure loss: {stakes}")
exploited = bad.with_stakes(stakes)
for atom in space.atoms:
    print(f"  payoff if {atom:4s} = {payoff(exploited, atom)}")

print("\n== the axioms behind coherence ==")
for violation in check_axioms(bad):
    print(f"  {violation}")
