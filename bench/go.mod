module gridtrust/bench

go 1.22

require gridtrust v0.0.0

replace gridtrust => ../
