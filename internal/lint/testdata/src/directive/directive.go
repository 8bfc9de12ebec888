// Package directive is a lint fixture for the //lint: comment parser:
// every malformed shape, each of which must surface as an
// unsuppressable "directive" diagnostic while leaving the underlying
// finding in place. TestDirectiveDiagnostics runs the nodeterm analyzer
// over this package and checks both diagnostic streams.
package directive

import "time"

//lint:deny nodeterm no such verb
func UnknownVerb() time.Time {
	return time.Now()
}

//lint:allow
func MissingCheck() time.Time {
	return time.Now()
}

//lint:allow bogus this check does not exist
func UnknownCheck() time.Time {
	return time.Now()
}

//lint:allow nodeterm
func MissingReason() time.Time {
	return time.Now()
}

// Unsuppressable shows that the "directive" pseudo-check itself cannot
// be allowed; the valid directive below it still suppresses the finding
// on its target line.
func Unsuppressable() time.Time {
	//lint:allow directive trying to silence the directive check itself
	//lint:allow nodeterm fixture: this wall-clock read is the control case
	return time.Now()
}

// RetiredCheck names an analyzer that no longer exists: the directive
// is an unknown check and suppresses nothing.
//
//lint:allow nilsafe the nil-receiver contract of obs handles is a test now
func RetiredCheck() time.Time {
	return time.Now()
}
