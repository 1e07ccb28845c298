package mig

// Pack and Unpack expose the codec to the external fuzz test, which needs
// the machd types and so cannot live in this package.
func Pack[T any](v *T) ([]byte, error) { return pack(v) }

func Unpack[T any](payload []byte) (*T, error) { return decodePayload[T](payload) }
