// A precondition no state satisfies only if `next` were a constant function: with
// `next` a 3-cycle on null and two objects, and `a` and `b` two of them, it holds and
// `False` does not, so `absurd` must not verify. A prover that names the witness of
// `EX y` once for every `x` proves it.
public class Surj {
    public static Surj a;
    public static Surj b;
    public Surj next;

    public static void absurd()
    /*: requires "(ALL x. EX y. y..next = x) & a ~= b"
        ensures "False" */
    {
    }
}
