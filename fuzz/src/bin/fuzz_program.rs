//! Fuzz target: the `Program` IR decoder — the bytes a hostile client
//! ships to a server (and a hostile server could echo back). Decoding
//! must be total: register references, opcode tags, float payloads,
//! and length fields are all attacker-controlled. Every program that
//! decodes is then statically verified, as server admission does
//! before it charges the session budget on the verifier's report.

use ark_ckks::params::CkksParams;
use ark_client::program::Program;
use ark_fhe::verify::{AbstractInput, VerifyContext};
use ark_math::wire::Cursor;

fn main() {
    let opts = ark_fuzz::parse_args("program");
    // runtime keys on, so rotations and conjugations verify instead of
    // stopping at the first undeclared amount
    let ctx = VerifyContext::new(CkksParams::tiny(), &[], false, None, true)
        .expect("tiny parameters are consistent");
    let max_level = ctx.params().max_level;
    ark_fuzz::run("program", &opts, |data| {
        let Ok(program) = Program::decode(&mut Cursor::new(data)) else {
            return;
        };
        // a program that decodes must also encode back losslessly and
        // verify without panicking
        let mut encoded = Vec::new();
        program.encode(&mut encoded);
        let again =
            Program::decode(&mut Cursor::new(&encoded)).expect("re-encoded program must decode");
        assert_eq!(program, again, "encode/decode must be lossless");
        let inputs = vec![AbstractInput::at_level(max_level); program.n_inputs() as usize];
        let _ = ctx.verify(&inputs, &program);
        let _ = program.worst_case_units(4);
        let _ = program.rotate_sum_terms();
    });
}
