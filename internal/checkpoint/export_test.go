package checkpoint

// Fault injection for the scenario-level tests in package checkpoint_test.
var (
	WriteFaults      = writeFaults
	InjectWriteFault = injectWriteFault
)
